package crashmc

import (
	"fmt"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry/span"
)

// Config parameterizes one model-checking run.
type Config struct {
	// Name labels the workload in results and generated repros.
	Name string
	// Bugs is the LibFS bug set under test (libfs.BugsNone = ArckFS+).
	Bugs libfs.Bugs
	// SerialData runs the workload under the locked data-plane read paths
	// (libfs.Options.SerialData). The read discipline must not change the
	// persist schedule, so a SerialData run explores the same crash-state
	// space as the lock-free default — the campaign carries one such
	// config as the tripwire.
	SerialData bool
	// Interleave optionally names an extra instrumented observation
	// point. "marker-window" observes inside the §4.2 commit window
	// (after the marker's flush is queued, before the final fence),
	// mirroring the Table-1 schedule the paper widens with sleep().
	Interleave string
	// Warmup ops run untracked to reach steady state (pools granted,
	// root acquired); the checker releases everything and enables
	// tracking after them, so the observed dirty state is only the
	// scripted Ops' own.
	Warmup []Op
	// Ops is the tracked workload.
	Ops []Op

	// DevSize is the simulated device size (default 4 MiB).
	DevSize int64
	// InodeCap is the formatted inode capacity (default 256).
	InodeCap uint64
	// PointBudget bounds exhaustive enumeration: a point whose
	// crash-state space is at most this many images is enumerated
	// completely, larger spaces fall back to corners + sampling
	// (default 64).
	PointBudget int
	// SampleN is the number of seeded random assignments checked at
	// each over-budget point, on top of the adversarial corners
	// (default 24).
	SampleN int
	// Seed drives the sampler deterministically (default 1).
	Seed int64
	// MaxCounterexamples stops the run early once this many distinct
	// invariant violations are recorded (default 4).
	MaxCounterexamples int
	// NoShrink skips op-schedule shrinking (used by probe re-runs).
	NoShrink bool

	// Expect is the configuration's oracle: the invariants it is
	// expected to violate, empty meaning expected clean. Result.OK
	// compares the outcome against it.
	Expect []string
}

func (c *Config) fill() {
	if c.DevSize == 0 {
		c.DevSize = 4 << 20
	}
	if c.InodeCap == 0 {
		c.InodeCap = 256
	}
	if c.PointBudget == 0 {
		c.PointBudget = 64
	}
	if c.SampleN == 0 {
		c.SampleN = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxCounterexamples == 0 {
		c.MaxCounterexamples = 4
	}
}

// LineChoice fixes one dirty cache line's crash outcome: persist the
// first K of its unpersisted store versions (K=0 keeps only the line's
// last fenced content). Lines absent from a counterexample's Keep set
// persist nothing.
type LineChoice struct {
	Off int64
	K   int
}

// Counterexample is one shrunk invariant violation: replaying Ops after
// Warmup and crashing at observation Point with exactly the Keep lines
// persisted yields an image that violates Invariant.
type Counterexample struct {
	Workload  string
	Bugs      libfs.Bugs
	Warmup    []Op
	Ops       []Op
	OpIndex   int // index of the op in flight (or just completed) at Point
	Point     int // 1-based observation ordinal
	Keep      []LineChoice
	Invariant string
	Detail    string
	// Flight is the arcktrace span history at the moment the breach was
	// recorded: every op of the run (the checker traces at sample=1),
	// including the operation in flight at Point — whose events show the
	// exact persist schedule (flushes, skipped fences) that admitted the
	// bad crash state.
	Flight *span.FlightRecord
}

func (ce *Counterexample) String() string {
	return fmt.Sprintf("%s [bugs=%#x] op %d (%s) point %d keep=%d lines: %s: %s",
		ce.Workload, uint32(ce.Bugs), ce.OpIndex, ce.Ops[minInt(ce.OpIndex, len(ce.Ops)-1)],
		ce.Point, len(ce.Keep), ce.Invariant, ce.Detail)
}

// Result summarizes one run.
type Result struct {
	Config          Config
	Points          int // observation points visited
	Images          int // crash images mounted and checked
	Exhaustive      int // points enumerated completely
	Sampled         int // points covered by corners + sampling
	Skipped         int // points with an empty dirty set
	Compactions     int // directory-log compactions the tracked ops ran
	Elapsed         time.Duration
	Counterexamples []*Counterexample
}

// Violated reports whether the run found a counterexample for inv.
func (r *Result) Violated(inv string) bool {
	for _, ce := range r.Counterexamples {
		if ce.Invariant == inv {
			return true
		}
	}
	return false
}

// OK reports whether the outcome matches the config's Expect oracle
// exactly: every expected invariant violated, nothing unexpected.
func (r *Result) OK() bool {
	want := map[string]bool{}
	for _, inv := range r.Config.Expect {
		want[inv] = true
	}
	for _, ce := range r.Counterexamples {
		if !want[ce.Invariant] {
			return false
		}
		delete(want, ce.Invariant)
	}
	return len(want) == 0
}

// Summary renders a one-line report for CLI output.
func (r *Result) Summary() string {
	status := "clean"
	if n := len(r.Counterexamples); n > 0 {
		status = fmt.Sprintf("%d counterexample(s)", n)
	}
	oracle := "as expected"
	if !r.OK() {
		oracle = "ORACLE MISMATCH (expected " + fmt.Sprint(r.Config.Expect) + ")"
	}
	return fmt.Sprintf("%-24s points=%-3d images=%-5d exhaustive=%d sampled=%d %s — %s",
		r.Config.Name, r.Points, r.Images, r.Exhaustive, r.Sampled, status, oracle)
}

// Run executes one model-checking run: collect counterexamples, then
// shrink each one's op schedule unless NoShrink is set.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	start := time.Now()
	res, err := runCollect(cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.NoShrink {
		for i, ce := range res.Counterexamples {
			shrunk, err := shrinkOps(cfg, ce)
			if err != nil {
				return nil, err
			}
			res.Counterexamples[i] = shrunk
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runCollect performs one full collection pass over cfg.
func runCollect(cfg Config) (*Result, error) {
	c, err := newChecker(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.res, nil
}

// replayState carries a Replay target through a run.
type replayState struct {
	repro   Repro
	reached bool
	vs      []Violation
}

// checker is one workload execution with observation state.
type checker struct {
	cfg       Config
	dev       *pmem.Device
	geo       layout.Geometry
	fs        *libfs.FS
	th        fsapi.Thread
	model     *Oracle
	tracer    *span.Tracer
	inflight  *Op
	opIdx     int
	inRelease bool
	// inCompaction is set while the LibFS compacts a directory's log
	// inside a release: those fences are its own persist schedule.
	inCompaction bool
	seen         map[string]bool // one counterexample per invariant
	res          *Result
	replay       *replayState
	err          error // sticky error raised inside an observation
}

func newChecker(cfg Config) (*checker, error) {
	dev := pmem.New(cfg.DevSize, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: cfg.InodeCap})
	if err != nil {
		return nil, err
	}
	c := &checker{
		cfg:  cfg,
		dev:  dev,
		geo:  ctrl.Geometry(),
		seen: map[string]bool{},
		res:  &Result{Config: cfg},
	}
	hooks := &libfs.Hooks{DirCompaction: func(begin bool) { c.inCompaction = begin }}
	switch cfg.Interleave {
	case "":
	case "marker-window":
		hooks.CreateBeforeMarkerFence = func() { c.observe() }
	default:
		return nil, fmt.Errorf("crashmc: unknown interleave %q", cfg.Interleave)
	}
	c.fs = libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{
		Bugs:           cfg.Bugs,
		Hooks:          hooks,
		GrantInoBatch:  32,
		GrantPageBatch: 32,
		DirBuckets:     8,
		SerialData:     cfg.SerialData,
	})
	// Trace every op (sample=1): a counterexample ships with the span
	// history of the run as its flight record.
	c.tracer = span.New(span.DefaultRingCap, 1)
	c.tracer.SetEnabled(true)
	c.fs.SetObservability(c.tracer, nil)
	c.th = c.fs.NewThread(0)
	for i, op := range cfg.Warmup {
		if err := c.runOp(op); err != nil {
			return nil, fmt.Errorf("crashmc %s: warmup op %d (%s): %v", cfg.Name, i, op, err)
		}
	}
	if err := c.fs.ReleaseAll(); err != nil {
		return nil, fmt.Errorf("crashmc %s: warmup release: %v", cfg.Name, err)
	}
	c.model = NewOracle(cfg.Warmup)
	dev.EnableTracking()
	dev.SetFenceObserver(func() { c.observe() })
	return c, nil
}

// runOp applies one op, checking the outcome against WantErr.
func (c *checker) runOp(op Op) error {
	err := op.apply(c.fs, c.th)
	if op.WantErr {
		if err == nil {
			return fmt.Errorf("op %s: expected an error, got none", op)
		}
		return nil
	}
	return err
}

// run executes the tracked workload, observing at every fence (via the
// device observer), at any configured interleave hook, and at a
// checkpoint after each op — the checkpoint catches lines whose stores
// escaped the op's own persist schedule entirely (the reserveDentry
// hole's shape).
func (c *checker) run() error {
	compacted := c.fs.Stats.DirCompactions.Load()
	defer func() { c.res.Compactions = int(c.fs.Stats.DirCompactions.Load() - compacted) }()
	for i := range c.cfg.Ops {
		op := c.cfg.Ops[i]
		c.opIdx = i
		c.inflight = &op
		c.inRelease = op.Kind == OpRelease
		if err := c.runOp(op); err != nil {
			return fmt.Errorf("crashmc %s: op %d (%s): %v", c.cfg.Name, i, op, err)
		}
		if c.err != nil {
			return c.err
		}
		c.inRelease = false
		c.inflight = nil
		c.model.Apply(op)
		c.observe()
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// hardened reports whether a line lies in a kernel-trusted region — the
// superblock or the shadow inode table — that every enumerated image
// persists fully. Shadow records span two lines under one trailing
// fence inside the kernel; tearing them fails recovery by construction
// and says nothing about LibFS ordering, the property under test.
func (c *checker) hardened(off int64) bool {
	if off < layout.PageSize {
		return true
	}
	s := int64(c.geo.ShadowStart) * layout.PageSize
	e := s + int64(c.geo.ShadowPages)*layout.PageSize
	return off >= s && off < e
}

// softStates returns the dirty lines subject to enumeration (everything
// outside the hardened regions).
func (c *checker) softStates() []pmem.LineState {
	all := c.dev.DirtyLineStates()
	soft := make([]pmem.LineState, 0, len(all))
	for _, s := range all {
		if !c.hardened(s.Off) {
			soft = append(soft, s)
		}
	}
	return soft
}

// observe is the per-point entry: called at the start of every fence
// while tracking, from the interleave hook, and as the post-op
// checkpoint.
func (c *checker) observe() {
	if c.err != nil || !c.dev.Tracking() {
		return
	}
	if c.inRelease && !c.inCompaction {
		// Fences inside the kernel release protocol are not LibFS
		// persist points; the kernel is trusted (see hardened). The
		// post-op checkpoint still enumerates whatever LibFS left dirty
		// across the release. A log compaction the LibFS runs before
		// crossing is its own schedule and is observed like any op.
		return
	}
	c.res.Points++
	if c.replay != nil {
		if c.res.Points == c.replay.repro.Point {
			c.replayCheck()
		}
		return
	}
	if len(c.res.Counterexamples) >= c.cfg.MaxCounterexamples {
		return
	}
	states := c.softStates()
	if len(states) == 0 {
		c.res.Skipped++
		return
	}
	c.enumerate(states, c.model.ExpectPresent(c.inflight))
}

// image materializes the crash image for one assignment over states;
// lines outside the assignment (the hardened regions) persist fully.
func (c *checker) image(states []pmem.LineState, ks []int) []byte {
	keep := make(map[int64]int, len(states))
	for i, s := range states {
		keep[s.Off] = ks[i]
	}
	return c.dev.CrashImage(func(off int64, versions int) int {
		if k, ok := keep[off]; ok {
			return k
		}
		return versions
	})
}

// checkAssignment checks one crash image; it returns false once the
// counterexample budget is exhausted.
func (c *checker) checkAssignment(states []pmem.LineState, ks []int, expect []string) bool {
	img := c.image(states, ks)
	c.res.Images++
	vs := CheckImage(img, expect)
	if len(vs) > 0 {
		c.record(states, ks, expect, vs[0])
	}
	return len(c.res.Counterexamples) < c.cfg.MaxCounterexamples
}

// violates re-checks a candidate (shrunk) assignment for a specific
// invariant.
func (c *checker) violates(states []pmem.LineState, ks []int, expect []string, inv string) (bool, string) {
	img := c.image(states, ks)
	c.res.Images++
	for _, v := range CheckImage(img, expect) {
		if v.Invariant == inv {
			return true, v.Detail
		}
	}
	return false, ""
}

// record registers a violation as a counterexample, shrinking its line
// assignment greedily while the device state is still live: first drop
// every persisted line the violation does not need, then shorten the
// surviving version prefixes.
func (c *checker) record(states []pmem.LineState, ks []int, expect []string, v Violation) {
	if c.seen[v.Invariant] {
		return
	}
	c.seen[v.Invariant] = true
	ks = append([]int(nil), ks...)
	detail := v.Detail
	for i := range ks {
		if ks[i] == 0 {
			continue
		}
		old := ks[i]
		ks[i] = 0
		if still, d := c.violates(states, ks, expect, v.Invariant); still {
			detail = d
		} else {
			ks[i] = old
		}
	}
	for i := range ks {
		for ks[i] > 1 {
			ks[i]--
			still, d := c.violates(states, ks, expect, v.Invariant)
			if !still {
				ks[i]++
				break
			}
			detail = d
		}
	}
	var keep []LineChoice
	for i, k := range ks {
		if k > 0 {
			keep = append(keep, LineChoice{Off: states[i].Off, K: k})
		}
	}
	n := c.opIdx + 1
	if n > len(c.cfg.Ops) {
		n = len(c.cfg.Ops)
	}
	c.res.Counterexamples = append(c.res.Counterexamples, &Counterexample{
		Workload:  c.cfg.Name,
		Bugs:      c.cfg.Bugs,
		Warmup:    append([]Op(nil), c.cfg.Warmup...),
		Ops:       append([]Op(nil), c.cfg.Ops[:n]...),
		OpIndex:   c.opIdx,
		Point:     c.res.Points,
		Keep:      keep,
		Invariant: v.Invariant,
		Detail:    detail,
		Flight:    c.flight(v.Invariant, detail),
	})
}

// flight captures the breach's flight record: the completed spans in the
// tracer's rings plus the span of the operation in flight at the
// observation point (observe runs synchronously inside the op, so its
// span — holding the very stores and skipped fences under enumeration —
// is still open and not yet published to a ring).
func (c *checker) flight(inv, detail string) *span.FlightRecord {
	fr := c.tracer.Flight("crashmc:"+inv, detail)
	if t, ok := c.th.(*libfs.Thread); ok {
		if sp := t.CurrentSpan(); sp != nil {
			fr.Spans = append(fr.Spans, sp)
		}
	}
	return fr
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
