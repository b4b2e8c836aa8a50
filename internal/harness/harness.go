// Package harness runs multi-threaded file system workloads and renders
// the tables and series the paper's figures report. A single-core host
// cannot exhibit real parallel speedup, so results are aggregate
// throughput across all workers: a perfectly scalable file system holds a
// flat line as threads grow, while lock- or journal-bound designs sag.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"arckfs/internal/telemetry"
)

// LatencySample is the per-op latency sampling interval: every Nth
// operation of each worker is timed into a histogram (rounded up to a
// power of two so the per-op check is a mask, not a division). 0
// disables latency collection entirely. Sampling (rather than timing
// every op) keeps the harness overhead on sub-microsecond simulated
// operations within noise; percentiles over a 1-in-8 systematic sample
// of a steady-state workload match the full distribution.
var LatencySample = 8

// SourceOf returns the telemetry set a file system under test exposes
// via a Telemetry() method, or nil if it has none.
func SourceOf(v any) *telemetry.Set {
	if p, ok := v.(interface{ Telemetry() *telemetry.Set }); ok {
		return p.Telemetry()
	}
	return nil
}

// Result is one measurement cell.
type Result struct {
	FS       string
	Workload string
	Threads  int
	Ops      int64
	Bytes    int64
	Elapsed  time.Duration
	Err      error

	// Lat summarizes sampled per-op latency; nil when sampling is
	// disabled or no op completed.
	Lat *telemetry.LatencySummary

	// Counters is the delta of the telemetry set across the measured
	// region; nil when the run had no set.
	Counters map[string]int64
}

// OpsPerSec returns aggregate operation throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// GiBPerSec returns aggregate data throughput.
func (r Result) GiBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 30) / r.Elapsed.Seconds()
}

// Run executes op(tid, i) opsPerThread times on each of threads workers
// and aggregates. The first error aborts that worker but other workers
// complete, so partially failed runs are visible rather than hung.
func Run(fsName, workload string, threads, opsPerThread int, op func(tid, i int) error) Result {
	return RunCounted(nil, fsName, workload, threads, opsPerThread, op)
}

// RunCounted is Run with a telemetry set (nil for none): the set is
// snapshotted around the measured region (workload setup stays outside) and the
// delta lands in Result.Counters. Each worker samples per-op latency
// into its own histogram (see LatencySample); the merged summary lands
// in Result.Lat. Ops counts operations that actually completed, so a
// worker that aborts early does not inflate throughput.
func RunCounted(src *telemetry.Set, fsName, workload string, threads, opsPerThread int, op func(tid, i int) error) Result {
	var wg sync.WaitGroup
	errs := make([]error, threads)
	done := make([]int64, threads)
	mask := -1 // negative: sampling off
	if s := LatencySample; s > 0 {
		pow := 1
		for pow < s {
			pow <<= 1
		}
		mask = pow - 1
	}
	var hists []*telemetry.Histogram
	if mask >= 0 {
		hists = make([]*telemetry.Histogram, threads)
		for i := range hists {
			hists[i] = telemetry.NewHistogram()
		}
	}
	var before map[string]int64
	if src != nil {
		before = src.Snapshot()
	}
	start := time.Now()
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var h *telemetry.Histogram
			if mask >= 0 {
				h = hists[tid]
			}
			n := int64(0)
			for i := 0; i < opsPerThread; i++ {
				var err error
				if h != nil && i&mask == 0 {
					t0 := time.Now()
					err = op(tid, i)
					h.Record(time.Since(t0).Nanoseconds())
				} else {
					err = op(tid, i)
				}
				if err != nil {
					errs[tid] = fmt.Errorf("thread %d op %d: %w", tid, i, err)
					done[tid] = n
					return
				}
				n++
			}
			done[tid] = n
		}(tid)
	}
	wg.Wait()
	res := Result{
		FS: fsName, Workload: workload, Threads: threads,
		Elapsed: time.Since(start),
	}
	for _, n := range done {
		res.Ops += n
	}
	if src != nil {
		res.Counters = telemetry.Delta(before, src.Snapshot())
	}
	if mask >= 0 {
		merged := telemetry.NewHistogram()
		for _, h := range hists {
			merged.Merge(h)
		}
		if merged.Count() > 0 {
			s := merged.Summary()
			res.Lat = &s
		}
	}
	for _, err := range errs {
		if err != nil {
			res.Err = err
			break
		}
	}
	return res
}

// Geomean returns the geometric mean of xs (ignoring non-positive
// values).
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table renders aligned benchmark output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Series collects (threads → throughput) curves per FS for one workload,
// the shape of a Figure-4 panel.
type Series struct {
	Workload string
	// Points[fs][threads] = ops/sec
	Points map[string]map[int]float64
}

// NewSeries creates an empty series.
func NewSeries(workload string) *Series {
	return &Series{Workload: workload, Points: map[string]map[int]float64{}}
}

// Add records one cell.
func (s *Series) Add(fs string, threads int, opsPerSec float64) {
	if s.Points[fs] == nil {
		s.Points[fs] = map[int]float64{}
	}
	s.Points[fs][threads] = opsPerSec
}

// Render prints the curves as a table: one row per thread count, one
// column per FS.
func (s *Series) Render() string {
	var fss []string
	threadSet := map[int]bool{}
	for fs, pts := range s.Points {
		fss = append(fss, fs)
		for th := range pts {
			threadSet[th] = true
		}
	}
	sort.Strings(fss)
	var threads []int
	for th := range threadSet {
		threads = append(threads, th)
	}
	sort.Ints(threads)
	tbl := Table{Title: s.Workload, Headers: append([]string{"threads"}, fss...)}
	for _, th := range threads {
		row := []string{fmt.Sprintf("%d", th)}
		for _, fs := range fss {
			row = append(row, fmt.Sprintf("%.0f", s.Points[fs][th]))
		}
		tbl.Add(row...)
	}
	return tbl.Render()
}

// Relative returns fsA's throughput as a percentage of fsB's at the
// given thread count.
func (s *Series) Relative(fsA, fsB string, threads int) float64 {
	b := s.Points[fsB][threads]
	if b == 0 {
		return 0
	}
	return 100 * s.Points[fsA][threads] / b
}
