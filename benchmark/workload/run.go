package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"arckfs"
	"arckfs/internal/fsapi"
)

// Config is one child process's assignment.
type Config struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Ops is the number of timed operations, all workers together. The
	// warm-up (Ops/20 more, same sequence, same instance) runs before them.
	Ops int `json:"ops"`
	// Costs turns RealisticCosts on; off gives the software clock.
	Costs bool `json:"costs"`
	// Trace records a span around every call the benchmark makes and
	// writes them to TracePath.
	Trace     bool   `json:"trace"`
	TracePath string `json:"trace_path,omitempty"`
	SHA       string `json:"sha,omitempty"`
}

// Result is what one child reports.
type Result struct {
	Config  Config `json:"config"`
	Host    Host   `json:"host"`
	Threads int    `json:"threads"`
	// Attempted and Failed count timed operations; an operation fails
	// when it returns an error or a value the oracle does not expect.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	SeqHash   string   `json:"seq_hash"`

	WallS float64 `json:"wall_s"`
	// E2E holds the end-to-end metrics by name, bounded and host-clock.
	E2E     map[string]float64 `json:"e2e"`
	P999US  float64            `json:"p999_us"`
	Samples int                `json:"latency_samples"`
	// RecoverMS lists every timed Recover call; E2E has their median.
	RecoverMS []float64 `json:"recover_ms_all"`

	// Counters are raw telemetry deltas over the timed region; PerOp holds
	// the counter-derived per-layer metrics (kind C and the cost terms).
	Counters  map[string]int64   `json:"counters"`
	PerOp     map[string]float64 `json:"per_op"`
	UserBytes int64              `json:"user_bytes"`
	// ReaderOnly is lookup_shared's telemetry delta over the part of the
	// warm-up in which only the read-only thread ran.
	ReaderOnly map[string]int64 `json:"reader_only_counters,omitempty"`

	// Spans summarizes the traced run by span name (nil when untraced);
	// GeneratorNS is the timed span's self time: the benchmark's own
	// overhead between calls.
	Spans       map[string]SpanStat `json:"spans,omitempty"`
	GeneratorNS float64             `json:"generator_ns,omitempty"`
	KVScanMS    float64             `json:"kv_scan_ms,omitempty"`
	KVTablesEnd int                 `json:"kv_tables_end,omitempty"`

	// Correct is the verdict of the correctness and durability checks.
	Correct       bool     `json:"correct"`
	Mismatches    []string `json:"mismatches,omitempty"`
	RecoverReport string   `json:"recover_report"`

	// Disturbed flags a repetition whose timed region did not have the
	// CPUs to itself: it is kept and marked, never dropped.
	Disturbed  bool    `json:"disturbed"`
	CPUPerWall float64 `json:"cpu_per_wall"`
	StealShare float64 `json:"steal_share"`
}

// impl is one workload's generator and oracle.
type impl interface {
	// setup builds the fileset on the freshly formatted system.
	setup(e *env) error
	// steps returns one function per worker; each call performs the
	// worker's next operation and checks its result against the oracle.
	steps() []func() error
	// quiesce closes what the workload holds open.
	quiesce() error
	// check compares what an application sees, on the live or the
	// recovered system, with the oracle.
	check(fs fsapi.FS, m *mismatches)
	userBytes() int64
	seqHash() uint64
}

// env is what a workload's setup sees.
type env struct {
	cfg     Config
	sys     *arckfs.System
	app     *arckfs.App
	tr      *Tracer // nil in untraced runs
	workers []*tfs  // worker 0 records into tr, the others into their own
	timed   int32   // ID of the "timed" span in tr
}

// worker returns worker i's file-system handle, creating it on first use.
func (e *env) worker(i int) *tfs {
	for len(e.workers) <= i {
		n := len(e.workers)
		f := &tfs{t: e.app.NewThread(n)}
		if e.tr != nil {
			f.tr = e.tr
			if n > 0 {
				f.tr = NewTracer(e.tr.t0, cap(e.tr.spans)/2)
			}
		}
		e.workers = append(e.workers, f)
	}
	return e.workers[i]
}

func warmupOps(ops int) int { return ops / 20 }

func (e *env) totalOps() int { return e.cfg.Ops + warmupOps(e.cfg.Ops) }

// run is one child's measurement in progress.
type run struct {
	cfg  Config
	spec Spec
	env  *env
	w    impl
	res  *Result
	// setups holds the duration of every set-up so far, in seconds.
	setups []float64
}

// Run executes one repetition: set-up, warm-up, the timed region, then the
// correctness and durability checks.
func Run(cfg Config) (*Result, error) {
	r, err := start(cfg)
	if err != nil {
		return nil, err
	}
	r.measure()
	if err := r.repeatSetup(); err != nil {
		return nil, err
	}
	r.verify()
	if cfg.Trace && cfg.TracePath != "" {
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// setupReps is how many times a child sets up; setup_s is their median, so
// that one slow page-fault storm does not decide it.
const setupReps = 3

// start sets the workload up for the run and times it.
func start(cfg Config) (*run, error) {
	host := hostInfo(cfg.SHA)
	began := time.Now()
	r, err := setUp(cfg, host)
	if err != nil {
		return nil, err
	}
	r.setups = []float64{time.Since(began).Seconds()}
	return r, nil
}

// repeatSetup sets up setupReps-1 more times, each on a fresh system that
// is dropped at once, and reports the median as setup_s. It runs after the
// timed region so that neither the heap the operations ran in nor the
// peak_rss_mb reading sees the extra devices.
func (r *run) repeatSetup() error {
	cfg := r.cfg
	cfg.Trace = false
	for len(r.setups) < setupReps {
		began := time.Now()
		if _, err := setUp(cfg, r.res.Host); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(began).Seconds())
		runtime.GC()
	}
	r.res.E2E["setup_s"] = median(r.setups)
	return nil
}

// setUp formats a system, builds the workload's fileset and runs the
// warm-up: everything setup_s covers.
func setUp(cfg Config, host Host) (*run, error) {
	spec, ok := SpecByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Ops < spec.Threads {
		return nil, fmt.Errorf("ops %d: need at least one per worker", cfg.Ops)
	}
	w := spec.newImpl()
	r := &run{cfg: cfg, spec: spec, w: w, res: &Result{Config: cfg, Host: host, Threads: spec.Threads}}
	e := &env{cfg: cfg}
	if cfg.Trace {
		e.tr = NewTracer(time.Now(), cfg.Ops*spec.SpansPerOp*11/10+4096)
	}
	r.env = e
	e.tr.Begin(spRun)
	span := e.tr.Begin(spSetup)
	var err error
	if e.sys, err = arckfs.New(arckfs.Options{RealisticCosts: cfg.Costs}); err != nil {
		return nil, err
	}
	e.app = e.sys.NewApp()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("%s setup: %w", cfg.Workload, err)
	}
	e.tr.End(span)

	// Warm-up: the first twentieth of the sequence, one worker after the
	// other, so that for lookup_shared the telemetry delta of the
	// read-only thread can be told apart from the writer's.
	span = e.tr.Begin(spWarmup)
	var log errLog
	steps := w.steps()
	for i, step := range steps {
		before := e.sys.Telemetry().Snapshot()
		for n := warmupOps(cfg.Ops) / len(steps); n > 0; n-- {
			log.note(step())
		}
		if i == 0 && len(steps) > 1 {
			r.res.ReaderOnly = delta(before, e.sys.Telemetry().Snapshot())
		}
	}
	e.tr.End(span)
	if log.failed > 0 {
		return nil, fmt.Errorf("%s warm-up: %d operations failed, first: %s", cfg.Workload, log.failed, log.first[0])
	}
	return r, nil
}

// errLog counts failed operations and keeps the first few messages.
type errLog struct {
	failed int
	first  []string
}

func (l *errLog) note(err error) {
	if err == nil {
		return
	}
	l.failed++
	if len(l.first) < 5 {
		l.first = append(l.first, err.Error())
	}
}

func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// drive runs n operations of step, timing every sampleEvery-th (a power of
// two) into lat.
func drive(step func() error, n, sampleEvery int, lat []int64, log *errLog) []int64 {
	for i := 0; i < n; i++ {
		if i&(sampleEvery-1) != 0 {
			log.note(step())
			continue
		}
		t := time.Now()
		err := step()
		lat = append(lat, int64(time.Since(t)))
		log.note(err)
	}
	return lat
}

// measure runs the timed region and derives every metric that comes from
// it. Nothing inside the region allocates or reads a clock except the
// latency samples (and the spans of a traced run).
func (r *run) measure() {
	e, res := r.env, r.res
	steps := r.w.steps()
	per := r.cfg.Ops / len(steps)
	res.Attempted = per * len(steps)
	every := r.spec.SampleEvery
	lats := make([][]int64, len(steps))
	logs := make([]errLog, len(steps))
	for i := range lats {
		lats[i] = make([]int64, 0, per/every+1)
	}
	userBefore := r.w.userBytes()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := e.sys.Telemetry().Snapshot()
	u0 := readUsage()
	span := e.tr.Begin(spTimed)
	e.timed = span
	e.tr.Snap(span, "begin", c0)

	began := time.Now()
	if len(steps) == 1 {
		lats[0] = drive(steps[0], per, every, lats[0], &logs[0])
	} else {
		var wg sync.WaitGroup
		for i := range steps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lats[i] = drive(steps[i], per, every, lats[i], &logs[i])
			}(i)
		}
		wg.Wait()
	}
	wall := time.Since(began)

	u1 := readUsage()
	c1 := e.sys.Telemetry().Snapshot()
	e.tr.End(span)
	e.tr.Snap(span, "end", c1)
	runtime.ReadMemStats(&ms1)

	ops := float64(res.Attempted)
	res.WallS = wall.Seconds()
	var all []int64
	for i := range lats {
		all = append(all, lats[i]...)
		res.Failed += logs[i].failed
		res.Errors = append(res.Errors, logs[i].first...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.Samples = len(all)
	res.P999US = percentile(all, 0.999) / 1e3
	res.Counters = delta(c0, c1)
	res.UserBytes = r.w.userBytes() - userBefore
	res.SeqHash = fmt.Sprintf("%016x", r.w.seqHash())
	res.PerOp = perOp(res.Counters, ops, res.UserBytes)
	res.PerOp["costmodel.modeled_share_pct"] = res.PerOp[modeledName] / (float64(wall) * float64(len(steps)) / ops) * 100
	res.PerOp["costmodel.spin_error_pct"] = res.Host.SpinErrorPct

	res.E2E = map[string]float64{}
	res.E2E["ops_per_s"] = ops / wall.Seconds()
	res.E2E["p50_us"] = percentile(all, 0.50) / 1e3
	res.E2E["p99_us"] = percentile(all, 0.99) / 1e3
	res.E2E[modeledName] = res.PerOp[modeledName]
	res.E2E["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	res.E2E["peak_rss_mb"] = float64(u1.maxRSSKiB) / 1024

	// A timed region that got less than one CPU's worth of time (every
	// workload keeps at least one worker busy throughout), or that lost
	// ticks to the hypervisor, was disturbed.
	res.CPUPerWall = float64(u1.cpu-u0.cpu) / float64(wall)
	res.StealShare = float64(u1.stealTicks-u0.stealTicks) / (wall.Seconds() * 100 * float64(res.Host.NProc))
	res.Disturbed = res.CPUPerWall < 0.92 || res.StealShare > 0.02
}

const modeledName = "modeled_ns_per_op"

// percentile returns the q-quantile of sorted (nearest rank), 0 if empty.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// perOp turns counter deltas into the per-layer counter metrics, the terms
// of the modeled clock, and their sum.
func perOp(d map[string]int64, ops float64, userBytes int64) map[string]float64 {
	out := make(map[string]float64, len(counterMetrics)+len(costTerms)+4)
	for _, m := range counterMetrics {
		out[m.Metric] = float64(d[m.Counter]) / ops
	}
	out[bytesPerUserByte] = 0
	if userBytes > 0 {
		out[bytesPerUserByte] = float64(d["pmem.bytes"]) / float64(userBytes)
	}
	p := prices()
	// Cache lines written with plain stores: everything stored that did
	// not go through a streaming store. An approximation from public
	// counters until the cost model keeps its own ledger.
	plainLines := float64(d["pmem.bytes"]-64*d["pmem.ntstores"]) / 64
	terms := map[string]float64{
		"costmodel.syscall_ns_per_op":     float64(p.SyscallNS * d["syscalls"]),
		"costmodel.flush_ns_per_op":       float64(p.FlushNS * d["pmem.flushes"]),
		"costmodel.fence_ns_per_op":       float64(p.FenceNS * d["pmem.fences"]),
		"costmodel.ntstore_ns_per_op":     float64(p.NTStoreNS * d["pmem.ntstores"]),
		"costmodel.pmwrite_ns_per_op":     float64(p.PMWriteNS) * plainLines,
		"costmodel.verify_ns_per_op":      float64(p.VerifyDentryNS*d["verifier.dentries"] + p.VerifyPageNS*d["verifier.pages"]),
		"costmodel.map_unmap_ns_per_op":   float64(p.MapNS*d["kernel.acquires"] + p.UnmapNS*d["kernel.releases"]),
		"costmodel.numa_remote_ns_per_op": float64(p.NUMARemoteNS * d["pmalloc.steals.remote"]),
	}
	var sum float64
	for _, name := range costTerms {
		out[name] = terms[name] / ops
		sum += out[name]
	}
	out[modeledName] = sum
	return out
}

// verify runs the correctness and durability checks, outside all timing
// except recover_ms: the oracle against the live system, then Image ->
// Recover (five times, timed) -> Fsck -> the oracle against the recovered
// system.
func (r *run) verify() {
	e, res := r.env, r.res
	var m mismatches
	span := e.tr.Begin(spVerify)
	defer func() {
		e.tr.End(span)
		res.Mismatches = m.first
		res.Correct = m.n == 0 && res.Failed == 0
		if e.tr != nil {
			e.tr.End(0) // the root "run" span
			for _, f := range e.workers {
				if f.tr != e.tr {
					e.tr.Adopt(f.tr, e.timed)
				}
			}
			res.Spans = e.tr.Summary()
			// With several workers the timed span has that many times
			// its own duration to account for.
			timed := res.Spans[spanNames[spTimed]]
			res.GeneratorNS = timed.SelfNS + timed.TotalNS*float64(res.Threads-1)
		}
	}()

	if kvw, ok := r.w.(*kvApp); ok {
		s := e.tr.Begin(spKVScan)
		t := time.Now()
		kvw.scan(kvw.db, &m)
		res.KVScanMS = float64(time.Since(t)) / 1e6
		e.tr.End(s)
		res.KVTablesEnd = kvw.tablesEnd()
	}
	if err := r.w.quiesce(); err != nil {
		m.addf("quiesce: %v", err)
	}
	if err := e.app.ReleaseAll(); err != nil {
		m.addf("release: %v", err)
	}
	// The live check reuses the workload's own application: a second one
	// could find the device's free pages parked in the first one's reserve.
	s := e.tr.Begin(spOracle)
	r.w.check(e.app, &m)
	e.tr.End(s)
	if err := e.app.ReleaseAll(); err != nil {
		m.addf("release after live check: %v", err)
	}

	img := e.sys.Image()
	rec, rep := r.recoverTimed(img, &m)
	if rec == nil {
		return
	}
	res.RecoverReport = rep.String()
	if fsck, err := arckfs.Fsck(rec.Image()); err != nil {
		m.addf("fsck of the recovered image: %v", err)
	} else if !fsck.Clean() {
		m.addf("fsck of the recovered image is not clean: %s", fsck)
	}
	s = e.tr.Begin(spOracle)
	r.w.check(rec.NewApp(), &m)
	e.tr.End(s)
	if c, ok := r.w.(*kvApp); ok {
		kvCrashCheck(c.g, r.cfg.Seed, &m)
	}
}

const recoverReps = 5

// recoverTimed mounts img recoverReps times with the cost model as the run
// had it and records each call's duration; it returns the last system.
func (r *run) recoverTimed(img []byte, m *mismatches) (*arckfs.System, *arckfs.Report) {
	var sys *arckfs.System
	var rep *arckfs.Report
	for i := 0; i < recoverReps; i++ {
		sys = nil
		runtime.GC() // let go of the previous 256 MiB device before making another
		s := r.env.tr.Begin(spRecover)
		t := time.Now()
		var err error
		sys, rep, err = arckfs.Recover(img, arckfs.Options{RealisticCosts: r.cfg.Costs})
		r.res.RecoverMS = append(r.res.RecoverMS, float64(time.Since(t))/1e6)
		r.env.tr.End(s)
		if err != nil {
			m.addf("recover: %v", err)
			return nil, nil
		}
	}
	sorted := append([]float64(nil), r.res.RecoverMS...)
	sort.Float64s(sorted)
	r.res.E2E["recover_ms"] = sorted[len(sorted)/2]
	return sys, rep
}

// TraceFile is the layout of benchmark/out/trace_<workload>.json.
type TraceFile struct {
	Config   Config              `json:"config"`
	Host     Host                `json:"host"`
	Summary  map[string]SpanStat `json:"summary"`
	Counters []CounterSnap       `json:"counter_snapshots"`
	Spans    []Span              `json:"spans"`
}

func (r *run) writeTrace() error {
	tr := r.env.tr
	f, err := os.Create(r.cfg.TracePath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(TraceFile{Config: r.cfg, Host: r.res.Host, Summary: r.res.Spans, Counters: tr.snaps, Spans: tr.Spans(r.cfg.Workload)})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
