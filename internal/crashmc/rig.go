package crashmc

import (
	"fmt"
	"io"

	"arckfs/internal/baseline"
	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry/span"
)

// Exploration bounds of the enumerate driver.
const (
	// pointBudget bounds exhaustive enumeration: a point whose
	// crash-state space is at most this many images is enumerated
	// completely, larger spaces fall back to pmem.Device.CrashImages'
	// corners + sampling.
	pointBudget = 64
	// maxBreaches stops an enumerated run early once this many distinct
	// invariants are violated.
	maxBreaches = 4
)

// Config is one campaign row: a system under test, a workload, and the
// outcome it must produce. The workload selects the driver: a row with
// scripted Ops is enumerated (every observation point × a bounded
// crash-image enumeration) and judged exactly; a row without is looped
// (Iters generated workloads, one seeded kill each) and judged by
// inclusion.
type Config struct {
	// Name labels the row in results and breach artifacts.
	Name string
	// System selects the implementation: "arck" (the ArckFS family, with
	// Bugs selecting the preset — the default) or a baseline ("nova",
	// "pmfs", "kucofs"). The baselines have no recovery scan, so they
	// are looped without a crash and only their live namespace is
	// checked; Bugs, Faults and Tenants are ignored.
	System string
	// Bugs is the injected LibFS bug set (libfs.BugsNone = ArckFS+).
	Bugs libfs.Bugs
	// Interleave optionally names an extra instrumented observation
	// point. "marker-window" observes inside the §4.2 commit window
	// (after the marker's flush is queued, before the final fence),
	// mirroring the Table-1 schedule the paper widens with sleep().
	Interleave string
	// Faults selects device lie modes. The pmem.FaultPlan is built from
	// the run's seed (the iteration seed under the loop driver), so a
	// lying run replays exactly like an honest one.
	Faults pmem.FaultMode
	// Tenants, when > 1, runs the workload round-robin across that many
	// LibFS instances under the one kernel. Every tenant switch releases
	// the outgoing tenant's holdings so the incoming one can re-acquire
	// the namespace — a continuous revocation storm — and crashes land
	// in the middle of those ownership transfers.
	Tenants int

	// Warmup ops run untracked to reach steady state (pools granted,
	// root acquired); the rig releases everything and enables tracking
	// after them, so the observed dirty state is only the tracked ops'
	// own. A looped row with no Warmup gets loopWarmup.
	Warmup []Op
	// Ops is the scripted tracked workload; empty selects the loop
	// driver, which generates one per iteration.
	Ops []Op

	// Iters is the number of loop iterations (default 40). A row with a
	// non-empty Expect that has found none of it by then runs on, up to
	// loopExtend×Iters, until its first expected breach.
	Iters int
	// Seed drives everything random (default 1): the enumerate driver's
	// sampler, and the loop driver's iteration seeds, each of which
	// fully determines its iteration.
	Seed int64
	// OpsPerIter sizes each generated workload (default 48).
	OpsPerIter int

	// ArtifactDir overrides the breach-artifact directory ("" resolves
	// via $ARCK_FLIGHT_DIR, default artifacts/).
	ArtifactDir string
	// NoArtifacts suppresses artifact files (tests).
	NoArtifacts bool
	// Log, when non-nil, receives one line per breach.
	Log io.Writer

	// Expect is the row's oracle: the invariants it is expected to
	// violate, empty meaning expected clean (see Result.OK).
	Expect []string
}

func (c *Config) fill() {
	if c.System == "" {
		c.System = "arck"
	}
	if c.Tenants == 0 {
		c.Tenants = 1
	}
	if c.Iters == 0 {
		c.Iters = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpsPerIter == 0 {
		c.OpsPerIter = 48
	}
	if !c.enumerated() && c.Warmup == nil {
		c.Warmup = loopWarmup()
	}
}

// enumerated reports which driver runs the row.
func (c *Config) enumerated() bool { return len(c.Ops) > 0 }

// rig is one booted system under test — device, kernel, one LibFS per
// tenant, a sample-1 tracer — warmed up, released, and tracking, with
// the durability oracle alongside. Both drivers run their workload
// through it; what they do at an observation point is theirs.
type rig struct {
	cfg    *Config
	dev    *pmem.Device // nil on a baseline
	geo    layout.Geometry
	fss    []*libfs.FS // one per tenant; empty on a baseline
	ths    []fsapi.Thread
	cur    int // the tenant holding the namespace
	tracer *span.Tracer
	oracle *Oracle
	ops    []Op // the tracked workload

	opIdx        int
	inflight     *Op
	inRelease    bool
	inCompaction bool
	// onPoint is the driver's reaction to a LibFS persist point: a fence
	// or the Interleave hook, after the rig's filter.
	onPoint func()
}

// newRig boots cfg's system, runs the warmup and its hidden release, and
// starts tracking. seed seeds the fault plan of a lying device.
func newRig(cfg *Config, seed int64, onPoint func()) (*rig, error) {
	r := &rig{cfg: cfg, onPoint: onPoint}
	// Every tenant parks a full inode-grant batch, so the device and the
	// inode table scale with the tenant count.
	devSize, inodeCap := int64(4<<20), uint64(256)
	if cfg.Tenants > 1 {
		devSize, inodeCap = 8<<20, uint64(256*cfg.Tenants)
	}
	if cfg.System == "arck" {
		r.dev = pmem.New(devSize, nil)
		ctrl, err := kernel.Format(r.dev, kernel.Options{InodeCap: inodeCap})
		if err != nil {
			return nil, err
		}
		r.geo = ctrl.Geometry()
		hooks := &libfs.Hooks{DirCompaction: func(begin bool) { r.inCompaction = begin }}
		switch cfg.Interleave {
		case "":
		case "marker-window":
			hooks.CreateBeforeMarkerFence = r.point
		default:
			return nil, fmt.Errorf("crashmc: unknown interleave %q", cfg.Interleave)
		}
		// Trace every op (sample=1): a breach ships with the span history
		// of the run as its flight record.
		r.tracer = span.New(span.DefaultRingCap, 1)
		r.tracer.SetEnabled(true)
		for k := 0; k < cfg.Tenants; k++ {
			fs := libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{
				Bugs:           cfg.Bugs,
				Hooks:          hooks,
				GrantInoBatch:  32,
				GrantPageBatch: 32,
				DirBuckets:     8,
			})
			fs.SetTracer(r.tracer)
			r.fss = append(r.fss, fs)
			r.ths = append(r.ths, fs.NewThread(0))
		}
	} else {
		bfs, err := baseline.New(cfg.System, devSize, nil)
		if err != nil {
			return nil, err
		}
		r.ths = []fsapi.Thread{bfs.NewThread(0)}
	}
	for i, op := range cfg.Warmup {
		if err := r.runOp(op); err != nil {
			return nil, fmt.Errorf("warmup op %d (%s): %v", i, op, err)
		}
	}
	if err := r.release(); err != nil {
		return nil, fmt.Errorf("warmup release: %v", err)
	}
	r.oracle = NewOracle(cfg.Warmup)
	if r.dev != nil {
		if cfg.Faults != pmem.FaultsNone {
			r.dev.SetFaultPlan(pmem.NewFaultPlan(cfg.Faults, seed))
		}
		r.dev.EnableTracking()
		r.dev.SetFenceObserver(r.point)
	}
	return r, nil
}

// point is the one observation filter. Fences inside the kernel release
// protocol are not LibFS persist points: the kernel is trusted (see
// hardened), and the checkpoint after the release still sees whatever
// LibFS left dirty across it. A log compaction the LibFS runs before
// crossing is its own schedule and is observed like any op.
func (r *rig) point() {
	if !r.dev.Tracking() || (r.inRelease && !r.inCompaction) {
		return
	}
	r.onPoint()
}

// release returns everything the current tenant holds to the kernel for
// verification — the Trio durability point. The baselines verify
// durability at fsync instead and have nothing to release.
func (r *rig) release() error {
	if len(r.fss) == 0 {
		return nil
	}
	return r.fss[r.cur].ReleaseAll()
}

// switchTenant hands the namespace to tenant k: the outgoing tenant
// voluntarily releases everything it holds, so the incoming tenant's
// next path walk re-acquires — and re-verifies — each component. The
// release's kernel-protocol fences are filtered like OpRelease's, but
// whitebox killpoints still fire, so crashes land mid-transfer.
func (r *rig) switchTenant(k int) error {
	if k == r.cur {
		return nil
	}
	r.inRelease = true
	err := r.release()
	r.inRelease = false
	r.cur = k
	return err
}

// runOp applies one op on the current tenant, checking the outcome
// against WantErr.
func (r *rig) runOp(op Op) error {
	err := op.apply(r.ths[r.cur], r.release)
	if op.WantErr {
		if err == nil {
			return fmt.Errorf("op %s: expected an error, got none", op)
		}
		return nil
	}
	return err
}

// run executes the tracked workload round-robin across the tenants,
// folding each completed op into the oracle. After every op it calls
// checkpoint — the drivers' post-op observation, which catches lines
// whose stores escaped the op's own persist schedule entirely (the
// reserveDentry hole's shape) — and stops early when that returns true.
func (r *rig) run(checkpoint func() (stop bool)) error {
	for i := range r.ops {
		op := r.ops[i]
		r.opIdx = i
		if err := r.switchTenant(i % len(r.ths)); err != nil {
			return fmt.Errorf("op %d handoff: %v", i, err)
		}
		r.inflight = &op
		r.inRelease = op.Kind == OpRelease
		if err := r.runOp(op); err != nil {
			return fmt.Errorf("op %d (%s): %v", i, op, err)
		}
		r.inRelease = false
		r.inflight = nil
		if !op.WantErr {
			r.oracle.Apply(op)
		}
		if checkpoint() {
			return nil
		}
	}
	return nil
}

// compactions counts the directory-log compactions the tenants have run.
func (r *rig) compactions() int {
	n := 0
	for _, fs := range r.fss {
		n += int(fs.Stats.DirCompactions.Load())
	}
	return n
}

// softStates returns dev's dirty lines outside the hardened regions
// (layout.Geometry.Hardened) — the ones a crash policy decides.
func (r *rig) softStates() []pmem.LineState {
	all := r.dev.DirtyLineStates()
	soft := all[:0]
	for _, s := range all {
		if !r.geo.Hardened(s.Off) {
			soft = append(soft, s)
		}
	}
	return soft
}

// image materializes dev's crash image: hardened lines persist fully,
// every other dirty line persists the prefix of its unpersisted versions
// that soft chooses.
func (r *rig) image(dev *pmem.Device, soft pmem.CrashPolicy) []byte {
	return dev.CrashImage(func(off int64, versions int) int {
		if r.geo.Hardened(off) {
			return versions
		}
		return soft(off, versions)
	})
}

// keepLines is the soft policy that persists exactly keep[off] versions
// of each listed line and nothing of any other.
func keepLines(keep map[int64]int) pmem.CrashPolicy {
	return func(off int64, _ int) int { return keep[off] }
}

// flight captures a breach's flight record: the completed spans in the
// tracer's rings plus the span of the operation in flight at the crash
// point (the drivers observe synchronously inside the op, so its span —
// holding the very stores and skipped fences under test — is still
// open and not yet published to a ring).
func (r *rig) flight(inv, detail string) *span.FlightRecord {
	if r.tracer == nil {
		return nil
	}
	fr := r.tracer.Flight("crashmc:"+inv, detail)
	if t, ok := r.ths[r.cur].(*libfs.Thread); ok {
		if sp := t.CurrentSpan(); sp != nil {
			fr.Spans = append(fr.Spans, sp)
		}
	}
	return fr
}

// breach assembles the record of one violation found while crashing at
// crash; drivers call it with the rig still in its crash-time state.
func (r *rig) breach(iter int, iterSeed int64, crash Crash, v Violation) *Breach {
	n := crash.OpIndex + 1
	if n > len(r.ops) {
		n = len(r.ops)
	}
	return &Breach{
		Tool:       breachTool,
		Config:     r.cfg.Name,
		System:     r.cfg.System,
		Bugs:       uint32(r.cfg.Bugs),
		Interleave: r.cfg.Interleave,
		Faults:     r.cfg.Faults.String(),
		Tenants:    r.cfg.Tenants,
		Seed:       r.cfg.Seed,
		Iter:       iter,
		IterSeed:   iterSeed,
		OpsPerIter: r.cfg.OpsPerIter,
		Warmup:     r.cfg.Warmup,
		Ops:        append([]Op(nil), r.ops[:n]...),
		Crash:      crash,
		Invariant:  v.Invariant,
		Detail:     v.Detail,
		Flight:     r.flight(v.Invariant, v.Detail),
	}
}
