// Command benchcheck gates CI on persistence-cost regressions. It reads
// one or more machine-readable run records produced by arckbench -json
// and compares selected per-op counters (pmem flushes, fences, ntstores,
// syscalls) against a checked-in bounds file, exiting nonzero if any
// measured cell exceeds a max bound or undercuts a min bound. Min bounds
// exist for counters whose value is the optimization — e.g. the grant
// leases' syscalls_avoided, which dropping to zero would mean the lease
// fast path silently stopped firing.
//
// Usage:
//
//	benchcheck -bounds bench_bounds.json record.json [record2.json ...]
//
// Per-op counts are deterministic for a given workload and persist
// schedule — unlike throughput they do not depend on host speed — so the
// bounds can be tight and the job can run on a tiny op count. A bound
// that matches no cell in any record is an error too: it means the
// workload or system was renamed and the bound went stale. The bounds
// are calibrated at a small op count: per-op costs for create-heavy
// workloads grow with directory scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"arckfs/internal/bench/experiments"
)

// Bound is one row of the bounds file: every recorded cell for the
// given (fs, workload) pair must keep per_op[metric] at or below Max
// and at or above Min. At least one of the two must be set.
type Bound struct {
	FS       string   `json:"fs"`
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Max      *float64 `json:"max,omitempty"`
	Min      *float64 `json:"min,omitempty"`
	// Note documents where the bound comes from; benchcheck echoes it
	// on failure so the log explains what regressed.
	Note string `json:"note,omitempty"`
}

// BoundsFile is the checked-in document.
type BoundsFile struct {
	Comment string  `json:"comment,omitempty"`
	Bounds  []Bound `json:"bounds"`
}

func main() {
	boundsPath := flag.String("bounds", "bench_bounds.json", "bounds file")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck -bounds bench_bounds.json record.json [...]")
		os.Exit(2)
	}

	var bf BoundsFile
	if err := readJSON(*boundsPath, &bf); err != nil {
		fatal("reading bounds: %v", err)
	}
	if len(bf.Bounds) == 0 {
		fatal("%s defines no bounds", *boundsPath)
	}

	var cells []experiments.Cell
	for _, path := range flag.Args() {
		var rec experiments.RunRecord
		if err := readJSON(path, &rec); err != nil {
			fatal("reading record: %v", err)
		}
		if rec.Config.Persist != "" && rec.Config.Persist != "batched" {
			fatal("%s was recorded with -persist %s; bounds apply to the default batched schedule",
				path, rec.Config.Persist)
		}
		cells = append(cells, rec.Cells...)
	}

	failures := 0
	for _, b := range bf.Bounds {
		if b.Max == nil && b.Min == nil {
			fatal("bound %s/%s %s sets neither max nor min", b.Workload, b.FS, b.Metric)
		}
		fail := func(c experiments.Cell, v float64, rel string, limit float64) {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s/%s %s = %.3f per op (%s, %d threads) %s bound %.3f",
				b.Workload, b.FS, b.Metric, v, c.Experiment, c.Threads, rel, limit)
			if b.Note != "" {
				fmt.Fprintf(os.Stderr, " — %s", b.Note)
			}
			fmt.Fprintln(os.Stderr)
		}
		matched := 0
		hi, lo := math.Inf(-1), math.Inf(1)
		for _, c := range cells {
			if c.FS != b.FS || c.Workload != b.Workload {
				continue
			}
			v, ok := c.PerOp[b.Metric]
			if !ok {
				continue
			}
			matched++
			hi, lo = math.Max(hi, v), math.Min(lo, v)
			if b.Max != nil && v > *b.Max {
				fail(c, v, "exceeds", *b.Max)
			}
			if b.Min != nil && v < *b.Min {
				fail(c, v, "undercuts", *b.Min)
			}
		}
		if matched == 0 {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s/%s %s: no cell in any record matches this bound (stale bound or missing experiment)\n",
				b.Workload, b.FS, b.Metric)
			continue
		}
		desc := ""
		if b.Max != nil {
			desc += fmt.Sprintf(" (max %.3f, worst %.3f)", *b.Max, hi)
		}
		if b.Min != nil {
			desc += fmt.Sprintf(" (min %.3f, worst %.3f)", *b.Min, lo)
		}
		fmt.Printf("ok   %s/%s %s across %d cells%s\n",
			b.Workload, b.FS, b.Metric, matched, desc)
	}
	if failures > 0 {
		fatal("%d bound(s) violated", failures)
	}
	fmt.Printf("benchcheck: %d bounds satisfied across %d cells\n", len(bf.Bounds), len(cells))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
