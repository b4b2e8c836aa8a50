// Package crashloop implements continuous randomized crash-loop testing
// — the blackbox tier above internal/crashmc's single-workload
// enumeration, and the engine behind cmd/arckcrash.
//
// Each iteration is fully determined by (Config, iteration seed): a
// seeded generator grows a randomized workload (create / write / rename
// / truncate / unlink / mkdir / release mixes, including the duplicate
// creates that plant dead reserved dentry slots) against an oracle
// mirror; execution kills the run at a random fence, at a named
// whitebox killpoint (pmem.Killpoint sites at commit-marker stores,
// batch drains, and recovery passes), or at a post-op checkpoint;
// recovery mounts the crash image via kernel.Mount with repair; and the
// recovered image is verified against the incrementally-maintained
// expected-state oracle (crashmc.Oracle) with crashmc.CheckImage. Under
// a Config with Faults set, the iteration's device additionally lies
// per a seeded pmem.FaultPlan — dropped flushes, lying fences, torn
// lines — exposing crash states honest-device enumeration can never
// reach.
//
// Every invariant violation is written as a replayable breach artifact
// (seed, op log, crash point, flight-recorder spans) into the shared
// artifact directory ($ARCK_FLIGHT_DIR, default artifacts/); Replay
// re-runs an iteration from the artifact alone.
//
// The baselines (nova, pmfs, kucofs) have no recovery scan, so their
// configs run in soak-only mode: no crash is injected and the live
// namespace is walked after the workload and compared against the
// oracle (the same walk doubles as the oracle self-check on ArckFS).
package crashloop

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"arckfs/internal/baseline/kucofs"
	"arckfs/internal/baseline/nova"
	"arckfs/internal/baseline/pmfs"
	"arckfs/internal/crashmc"
	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry/span"
)

// InvLiveMismatch is the soak invariant: after a crash-free run the live
// namespace must equal the oracle's expected namespace exactly. It is
// the only invariant checkable on the baselines (which have no recovery
// path) and doubles as the oracle self-check on ArckFS.
const InvLiveMismatch = "L1-live-namespace"

// Config parameterizes one crash-loop run.
type Config struct {
	// Name labels the config in results and breach artifacts.
	Name string
	// System selects the implementation: "arck" (the ArckFS family,
	// with Bugs selecting the preset — the default) or a baseline
	// ("nova", "pmfs", "kucofs"; soak-only, Bugs and Faults ignored).
	System string
	// Bugs is the injected LibFS bug set (libfs.BugsNone = ArckFS+).
	Bugs libfs.Bugs
	// Faults selects device lie modes; each iteration builds its
	// pmem.FaultPlan from the iteration seed, so a lying run replays
	// exactly like an honest one.
	Faults pmem.FaultMode
	// FaultFilter, when non-nil, restricts drop-flush lies to accepted
	// line offsets (see pmem.FaultPlan.Filter). Tests aim lies with it;
	// it is not serialized into artifacts.
	FaultFilter func(lineOff int64) bool

	// Tenants, when > 1, runs the workload round-robin across that many
	// LibFS instances under the one kernel ("arck" only; baselines have
	// no registration concept). Every tenant switch releases the
	// outgoing tenant's holdings so the incoming one can re-acquire the
	// namespace — a continuous revocation storm — and crashes land in
	// the middle of those ownership transfers, which is the point: the
	// multi-app release/reacquire protocol is exercised at every kill
	// site the single-tenant loop covers.
	Tenants int

	// Iters is the number of iterations (default 40).
	Iters int
	// Seed drives everything (default 1): iteration seeds derive from
	// it, and each iteration is fully determined by its own seed.
	Seed int64
	// OpsPerIter sizes each iteration's generated workload (default 48).
	OpsPerIter int
	// DevSize is the simulated device size (default 4 MiB).
	DevSize int64
	// InodeCap is the formatted inode capacity (default 256).
	InodeCap uint64

	// ArtifactDir overrides the breach-artifact directory ("" resolves
	// via $ARCK_FLIGHT_DIR, default artifacts/).
	ArtifactDir string
	// NoArtifacts suppresses artifact files (tests).
	NoArtifacts bool
	// Log, when non-nil, receives per-breach progress lines.
	Log io.Writer

	// Expect is the config's oracle: the invariants the run is expected
	// to breach, empty meaning expected clean. Unlike crashmc's exact
	// matching, a randomized loop is judged by inclusion: at least one
	// breach, and nothing outside Expect.
	Expect []string
}

func (c *Config) fill() {
	if c.System == "" {
		c.System = "arck"
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
	if c.Tenants == 0 {
		c.Tenants = 1
	}
	if c.DevSize == 0 {
		c.DevSize = 4 << 20
		if c.Tenants > 1 {
			c.DevSize = 8 << 20
		}
	}
	if c.InodeCap == 0 {
		// Every tenant parks a full inode-grant batch; scale the cap so
		// the last tenant's first grant doesn't starve.
		c.InodeCap = 256
		if c.Tenants > 1 {
			c.InodeCap = uint64(256 * c.Tenants)
		}
	}
}

func (c *Config) baseline() bool { return c.System != "arck" }

// CrashPoint pins where an iteration was cut.
type CrashPoint struct {
	// Kind is "fence" (the Nth observed fence), "killpoint" (a named
	// whitebox site's Nth hit), "checkpoint" (after an op completed), or
	// "recovery" (a fence crash whose first repair mount was then killed
	// at the end of recovery pass Ordinal).
	Kind string `json:"kind"`
	// Site is the killpoint site name (killpoint/recovery kinds).
	Site string `json:"site,omitempty"`
	// Ordinal is the fence count, killpoint hit, or recovery pass.
	Ordinal int `json:"ordinal"`
	// OpIndex is the index of the op in flight (or just completed).
	OpIndex int `json:"op_index"`
	// Policy names the line-persistence policy the crash image used:
	// drop-all, one-alone, all-but-one, or random.
	Policy string `json:"policy"`
}

func (cp CrashPoint) String() string {
	s := cp.Kind
	if cp.Site != "" {
		s += ":" + cp.Site
	}
	return fmt.Sprintf("%s#%d op=%d policy=%s", s, cp.Ordinal, cp.OpIndex, cp.Policy)
}

// Breach is one invariant violation, serialized as a replayable
// artifact: ReplayConfig + IterSeed reproduce the iteration (workload,
// fault plan, crash point, crash image) byte-for-byte without the
// original campaign.
type Breach struct {
	Tool       string             `json:"tool"` // "arckcrash"
	Config     string             `json:"config"`
	System     string             `json:"system"`
	Bugs       uint32             `json:"bugs"`
	Faults     string             `json:"faults"`
	Seed       int64              `json:"seed"`
	Iter       int                `json:"iter"`
	IterSeed   int64              `json:"iter_seed"`
	OpsPerIter int                `json:"ops_per_iter"`
	Tenants    int                `json:"tenants,omitempty"`
	DevSize    int64              `json:"dev_size"`
	InodeCap   uint64             `json:"inode_cap"`
	Ops        []crashmc.Op       `json:"ops"` // op log up to the crash
	Crash      CrashPoint         `json:"crash"`
	Invariant  string             `json:"invariant"`
	Detail     string             `json:"detail"`
	Flight     *span.FlightRecord `json:"flight,omitempty"`
	// Artifact is the path the breach was written to (set by Run).
	Artifact string `json:"-"`
}

func (b *Breach) String() string {
	return fmt.Sprintf("%s iter %d (seed %d) %s: %s: %s",
		b.Config, b.Iter, b.IterSeed, b.Crash, b.Invariant, b.Detail)
}

// Result summarizes one crash-loop run.
type Result struct {
	Config   Config
	Iters    int
	Crashes  int // iterations that crashed and recovered
	Images   int // crash images mounted and checked
	Soaks    int // live-namespace verifications (crash-free endings)
	Breaches []*Breach
	Elapsed  time.Duration
}

// OK reports whether the outcome matches the config's Expect oracle:
// empty Expect demands zero breaches; a non-empty Expect demands at
// least one breach and no breach outside the expected set.
func (r *Result) OK() bool {
	if len(r.Config.Expect) == 0 {
		return len(r.Breaches) == 0
	}
	if len(r.Breaches) == 0 {
		return false
	}
	want := map[string]bool{}
	for _, inv := range r.Config.Expect {
		want[inv] = true
	}
	for _, b := range r.Breaches {
		if !want[b.Invariant] {
			return false
		}
	}
	return true
}

// Summary renders a one-line report for CLI output.
func (r *Result) Summary() string {
	status := "clean"
	if n := len(r.Breaches); n > 0 {
		status = fmt.Sprintf("%d breach(es)", n)
	}
	oracle := "as expected"
	if !r.OK() {
		oracle = "ORACLE MISMATCH (expected " + fmt.Sprint(r.Config.Expect) + ")"
	}
	return fmt.Sprintf("%-16s iters=%-4d crashes=%-4d images=%-4d soaks=%-4d %s — %s",
		r.Config.Name, r.Iters, r.Crashes, r.Images, r.Soaks, status, oracle)
}

// Run executes cfg.Iters crash-loop iterations and writes a breach
// artifact for every invariant violation.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	start := time.Now()
	res := &Result{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Iters; i++ {
		iterSeed := rng.Int63()
		ir, err := runIteration(&cfg, i, iterSeed)
		if err != nil {
			return nil, fmt.Errorf("crashloop %s: iter %d (seed %d): %v", cfg.Name, i, iterSeed, err)
		}
		res.Iters++
		if ir.Crashed {
			res.Crashes++
		}
		if ir.Soaked {
			res.Soaks++
		}
		res.Images += ir.Images
		for _, b := range ir.Breaches {
			if !cfg.NoArtifacts {
				name := fmt.Sprintf("arckcrash-%s-seed%d-iter%d-%s", cfg.Name, cfg.Seed, i, b.Invariant)
				path, err := span.WriteArtifact(cfg.ArtifactDir, name, b)
				if err != nil {
					return nil, fmt.Errorf("crashloop %s: writing breach artifact: %v", cfg.Name, err)
				}
				b.Artifact = path
			}
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "BREACH %s\n", b)
				if b.Artifact != "" {
					fmt.Fprintf(cfg.Log, "       artifact: %s\n", b.Artifact)
				}
			}
			res.Breaches = append(res.Breaches, b)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// iterResult is one iteration's outcome.
type iterResult struct {
	Crashed  bool
	Soaked   bool
	Images   int
	OpLog    []crashmc.Op // the full generated workload
	Crash    *CrashPoint  // nil when the iteration never crashed
	Breaches []*Breach
}

// killSentinel unwinds a killed execution back to runIteration.
type killSentinel struct{}

// killSpec is an iteration's seeded crash schedule.
type killSpec struct {
	kind    string // fence | killpoint | checkpoint | recovery
	site    string // killpoint site
	n       int    // fence ordinal / killpoint hit / checkpoint op index
	policy  int    // 0 drop-all, 1 one-alone, 2 all-but-one, 3 random
	recPass int    // recovery kind: pass at which the repair mount dies
}

// iteration carries one run's state.
type iteration struct {
	cfg  *Config
	iter int
	seed int64
	rng  *rand.Rand

	dev    *pmem.Device
	geo    layout.Geometry
	fs     *libfs.FS    // current tenant's LibFS
	th     fsapi.Thread // current tenant's worker
	fss    []*libfs.FS  // all tenants (len 1 unless cfg.Tenants > 1)
	ths    []fsapi.Thread
	cur    int // index of the current tenant in fss/ths
	tracer *span.Tracer
	oracle *crashmc.Oracle
	ops    []crashmc.Op

	opIdx     int
	inflight  *crashmc.Op
	inRelease bool

	kill   killSpec
	fences int

	img           []byte
	crash         *CrashPoint
	crashInflight *crashmc.Op
}

// warmupOps is the fixed pre-tracking script: two directories and one
// long-named file, so every iteration starts with a populated, released
// namespace. Long names span multiple cache lines (DentryRecLen > 64),
// making torn records physically expressible from the first op.
func warmupOps() []crashmc.Op {
	return []crashmc.Op{
		{Kind: crashmc.OpMkdir, Path: "/w0"},
		{Kind: crashmc.OpMkdir, Path: "/w1"},
		{Kind: crashmc.OpCreate, Path: "/wseed" + longName},
	}
}

// runIteration executes one fully seeded iteration. It is the replay
// unit: (cfg, iterSeed) determine the workload, fault plan, crash
// point, and crash image completely.
func runIteration(cfg *Config, iter int, iterSeed int64) (*iterResult, error) {
	if cfg.baseline() {
		return runSoakIteration(cfg, iter, iterSeed)
	}
	it := &iteration{cfg: cfg, iter: iter, seed: iterSeed,
		rng: rand.New(rand.NewSource(iterSeed))}
	res := &iterResult{}

	dev := pmem.New(cfg.DevSize, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: cfg.InodeCap})
	if err != nil {
		return nil, err
	}
	it.dev = dev
	it.geo = ctrl.Geometry()
	// Trace every op: a breach ships with the run's span history.
	it.tracer = span.New(span.DefaultRingCap, 1)
	it.tracer.SetEnabled(true)
	for k := 0; k < cfg.Tenants; k++ {
		fs := libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{
			Bugs:           cfg.Bugs,
			GrantInoBatch:  32,
			GrantPageBatch: 32,
			DirBuckets:     8,
		})
		fs.SetObservability(it.tracer, nil)
		it.fss = append(it.fss, fs)
		it.ths = append(it.ths, fs.NewThread(0))
	}
	it.fs, it.th = it.fss[0], it.ths[0]

	warm := warmupOps()
	for i, op := range warm {
		if err := it.runOp(op); err != nil {
			return nil, fmt.Errorf("warmup op %d (%s): %v", i, op, err)
		}
	}
	if err := it.fs.ReleaseAll(); err != nil {
		return nil, fmt.Errorf("warmup release: %v", err)
	}
	it.oracle = crashmc.NewOracle(warm)

	// Generate the workload against a mirror oracle; generation draws
	// from the iteration rng before execution starts, so the op log is a
	// pure function of the seed.
	it.ops = genOps(it.rng, crashmc.NewOracle(warm), cfg.OpsPerIter)
	res.OpLog = it.ops
	it.kill = it.pickKill()

	// Lies, when configured, start with tracking: the fault plan is
	// seeded by the iteration, so the lying execution replays too.
	if cfg.Faults != pmem.FaultsNone {
		plan := pmem.NewFaultPlan(cfg.Faults, iterSeed)
		plan.Filter = cfg.FaultFilter
		dev.SetFaultPlan(plan)
	}
	dev.EnableTracking()
	dev.SetFenceObserver(func() {
		if it.inRelease || it.crash != nil {
			// Fences inside the kernel release protocol are not LibFS
			// persist points (the kernel-trusted regions persist fully in
			// every materialized image); mirror crashmc and skip them.
			return
		}
		it.fences++
		if (it.kill.kind == "fence" || it.kill.kind == "recovery") && it.fences == it.kill.n {
			it.capture(it.kill.kind, "", it.fences)
			panic(killSentinel{})
		}
	})
	if it.kill.kind == "killpoint" {
		pmem.ArmKillpoint(it.kill.site, it.kill.n, func(site string) {
			if it.crash != nil {
				return
			}
			it.capture("killpoint", site, it.kill.n)
			panic(killSentinel{})
		})
		defer pmem.DisarmKillpoint()
	}

	if err := it.runWorkload(); err != nil {
		return nil, err
	}
	pmem.DisarmKillpoint()
	dev.SetFenceObserver(nil)

	if it.crash == nil {
		// The chosen kill never fired (fence ordinal past the run,
		// killpoint site not reached). Soak-verify the live namespace,
		// then still exercise recovery with an end-of-run checkpoint
		// crash so every iteration covers the mount path.
		if b := it.soakCheck(); b != nil {
			res.Breaches = append(res.Breaches, b)
		}
		res.Soaked = true
		it.opIdx = len(it.ops) - 1
		it.capture("checkpoint", "", 0)
	}
	res.Crashed = true
	res.Crash = it.crash
	it.verifyCrash(res)
	return res, nil
}

// pickKill draws the iteration's crash schedule.
func (it *iteration) pickKill() killSpec {
	k := killSpec{policy: it.rng.Intn(4)}
	sites := []string{"libfs.create.marker", "pmem.batch.barrier", "pmem.batch.drain", "libfs.compact.swap"}
	switch roll := it.rng.Intn(100); {
	case roll < 40:
		k.kind = "fence"
		k.n = 1 + it.rng.Intn(4*it.cfg.OpsPerIter)
	case roll < 70:
		k.kind = "killpoint"
		k.site = sites[it.rng.Intn(len(sites))]
		k.n = 1 + it.rng.Intn(24)
	case roll < 90:
		k.kind = "checkpoint"
		k.n = it.rng.Intn(len(it.ops))
	default:
		// Crash at a fence, then kill the first repair mount at the end
		// of a recovery pass — the crash-during-recovery double fault.
		k.kind = "recovery"
		k.n = 1 + it.rng.Intn(2*it.cfg.OpsPerIter)
		k.recPass = 1 + it.rng.Intn(6)
	}
	return k
}

// switchTenant hands the namespace from the current tenant to tenant
// k: the outgoing tenant voluntarily releases everything it holds
// (exclusive ownership means the incoming tenant's next path walk
// re-acquires — and re-verifies — each component). The release's
// kernel-protocol fences are skipped like OpRelease's are, but whitebox
// killpoints still fire, so crashes land mid-transfer.
func (it *iteration) switchTenant(k int) error {
	if k == it.cur {
		return nil
	}
	it.inRelease = true
	err := it.fs.ReleaseAll()
	it.inRelease = false
	if err != nil {
		return err
	}
	it.cur = k
	it.fs, it.th = it.fss[k], it.ths[k]
	return nil
}

// runOp applies one op, checking the outcome against WantErr.
func (it *iteration) runOp(op crashmc.Op) error {
	var release func() error
	if it.fs != nil {
		release = it.fs.ReleaseAll
	}
	err := op.Apply(it.th, release)
	if op.WantErr {
		if err == nil {
			return fmt.Errorf("op %s: expected an error, got none", op)
		}
		return nil
	}
	return err
}

// runWorkload executes the generated ops, recovering the kill sentinel.
func (it *iteration) runWorkload() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok && it.crash != nil {
				err = nil
				return
			}
			panic(r)
		}
	}()
	for i := range it.ops {
		op := it.ops[i]
		it.opIdx = i
		if e := it.switchTenant(i % len(it.fss)); e != nil {
			return fmt.Errorf("op %d handoff: %v", i, e)
		}
		it.inflight = &op
		it.inRelease = op.Kind == crashmc.OpRelease
		if e := it.runOp(op); e != nil {
			return fmt.Errorf("op %d (%s): %v", i, op, e)
		}
		it.inRelease = false
		it.inflight = nil
		if !op.WantErr {
			it.oracle.Apply(op)
		}
		if it.kill.kind == "checkpoint" && i == it.kill.n {
			it.capture("checkpoint", "", 0)
			return nil
		}
	}
	return nil
}

// hardened reports whether a line lies in a kernel-trusted region (the
// superblock or the shadow inode table) that every materialized image
// persists fully — and that device lies therefore cannot touch. Shadow
// records span two lines under one trailing kernel fence; tearing them
// fails recovery by construction and says nothing about LibFS ordering,
// the property under test.
func (it *iteration) hardened(off int64) bool {
	if off < layout.PageSize {
		return true
	}
	s := int64(it.geo.ShadowStart) * layout.PageSize
	e := s + int64(it.geo.ShadowPages)*layout.PageSize
	return off >= s && off < e
}

// capture materializes the crash image under the iteration's policy and
// records the crash point. Runs synchronously at the kill site, before
// the sentinel unwinds.
func (it *iteration) capture(kind, site string, ordinal int) {
	var soft []pmem.LineState
	for _, s := range it.dev.DirtyLineStates() {
		if !it.hardened(s.Off) {
			soft = append(soft, s)
		}
	}
	name, policy := it.pickPolicy(soft)
	it.img = it.dev.CrashImage(policy)
	it.crash = &CrashPoint{Kind: kind, Site: site, Ordinal: ordinal, OpIndex: it.opIdx, Policy: name}
	it.crashInflight = it.inflight
}

// pickPolicy builds the iteration's line-persistence policy over the
// soft (non-hardened) dirty lines. Hardened lines always persist fully.
func (it *iteration) pickPolicy(soft []pmem.LineState) (string, pmem.CrashPolicy) {
	keep := make(map[int64]int, len(soft))
	var name string
	switch it.kill.policy {
	case 0:
		name = "drop-all"
	case 1:
		name = "one-alone"
		if len(soft) > 0 {
			s := soft[it.rng.Intn(len(soft))]
			keep[s.Off] = s.Versions
		}
	case 2:
		name = "all-but-one"
		drop := -1
		if len(soft) > 0 {
			drop = it.rng.Intn(len(soft))
		}
		for i, s := range soft {
			if i != drop {
				keep[s.Off] = s.Versions
			}
		}
	default:
		name = "random"
		for _, s := range soft {
			keep[s.Off] = it.rng.Intn(s.Versions + 1)
		}
	}
	return name, func(off int64, versions int) int {
		if it.hardened(off) {
			return versions
		}
		return keep[off]
	}
}

// verifyCrash recovers the captured image and checks the invariants,
// recording one breach per violated invariant.
func (it *iteration) verifyCrash(res *iterResult) {
	img := it.img
	if it.kill.kind == "recovery" {
		img = it.interruptRecovery(img)
	}
	expect := it.oracle.ExpectPresent(it.crashInflight)
	res.Images++
	seen := map[string]bool{}
	for _, v := range crashmc.CheckImage(img, expect) {
		if seen[v.Invariant] {
			continue
		}
		seen[v.Invariant] = true
		res.Breaches = append(res.Breaches, it.breach(v.Invariant, v.Detail))
	}
}

// interruptRecovery restores the crash image, kills the repair mount at
// the end of the scheduled recovery pass, and returns the crash image
// of the half-repaired device — the input for the second (checked)
// recovery. Recovery-pass kills force RecoverWorkers=1 so the armed
// panic unwinds the mounting goroutine, never a parallel worker.
func (it *iteration) interruptRecovery(img []byte) []byte {
	rdev := pmem.Restore(img, nil)
	rdev.EnableTracking()
	var img2 []byte
	pmem.ArmKillpoint("kernel.recover.pass", it.kill.recPass, func(string) {
		img2 = rdev.CrashImage(func(off int64, versions int) int {
			if it.hardened(off) {
				return versions
			}
			return it.rng.Intn(versions + 1)
		})
		panic(killSentinel{})
	})
	defer pmem.DisarmKillpoint()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r)
				}
			}
		}()
		_, _, _ = kernel.Mount(rdev, kernel.Options{RecoverWorkers: 1}, true)
	}()
	if img2 == nil {
		// The mount failed before the scheduled pass ended; check the
		// original image (an unrecoverable image is an I1 breach there).
		return img
	}
	it.crash.Site = "kernel.recover.pass"
	it.crash.Ordinal = it.kill.recPass
	return img2
}

// soakCheck walks the live namespace and compares it to the oracle —
// the crash-free verification (and the ArckFS oracle self-check).
func (it *iteration) soakCheck() *Breach {
	got, err := walkLive(it.th)
	if err != nil {
		return it.breach(InvLiveMismatch, fmt.Sprintf("namespace walk failed: %v", err))
	}
	if d := diffNamespaces(it.oracle.Live(), got); d != "" {
		return it.breach(InvLiveMismatch, d)
	}
	return nil
}

// breach assembles a replayable artifact for one violation.
func (it *iteration) breach(invariant, detail string) *Breach {
	n := len(it.ops)
	cp := CrashPoint{Kind: "soak", OpIndex: n - 1}
	if it.crash != nil {
		cp = *it.crash
		if m := cp.OpIndex + 1; m < n {
			n = m
		}
	}
	var flight *span.FlightRecord
	if it.tracer != nil {
		flight = it.tracer.Flight("arckcrash:"+invariant, detail)
		// The span of the op in flight at the kill is still open (capture
		// runs synchronously inside it); append it by hand.
		if t, ok := it.th.(*libfs.Thread); ok {
			if sp := t.CurrentSpan(); sp != nil {
				flight.Spans = append(flight.Spans, sp)
			}
		}
	}
	return &Breach{
		Tool:       "arckcrash",
		Config:     it.cfg.Name,
		System:     it.cfg.System,
		Bugs:       uint32(it.cfg.Bugs),
		Faults:     it.cfg.Faults.String(),
		Seed:       it.cfg.Seed,
		Iter:       it.iter,
		IterSeed:   it.seed,
		OpsPerIter: it.cfg.OpsPerIter,
		Tenants:    it.cfg.Tenants,
		DevSize:    it.cfg.DevSize,
		InodeCap:   it.cfg.InodeCap,
		Ops:        append([]crashmc.Op(nil), it.ops[:n]...),
		Crash:      cp,
		Invariant:  invariant,
		Detail:     detail,
	}
}

// runSoakIteration drives a baseline (no recovery scan, no crash): run
// the workload, then verify the live namespace against the oracle.
func runSoakIteration(cfg *Config, iter int, iterSeed int64) (*iterResult, error) {
	it := &iteration{cfg: cfg, iter: iter, seed: iterSeed,
		rng: rand.New(rand.NewSource(iterSeed))}
	res := &iterResult{}

	var bfs fsapi.FS
	var err error
	switch cfg.System {
	case "nova":
		bfs, err = nova.New(cfg.DevSize, nil)
	case "pmfs":
		bfs, err = pmfs.New(cfg.DevSize, nil)
	case "kucofs":
		bfs, err = kucofs.New(cfg.DevSize, nil)
	default:
		err = fmt.Errorf("crashloop: unknown system %q", cfg.System)
	}
	if err != nil {
		return nil, err
	}
	it.th = bfs.NewThread(0)

	warm := warmupOps()
	for i, op := range warm {
		if err := it.runOp(op); err != nil {
			return nil, fmt.Errorf("warmup op %d (%s): %v", i, op, err)
		}
	}
	it.oracle = crashmc.NewOracle(warm)
	it.ops = genOps(it.rng, crashmc.NewOracle(warm), cfg.OpsPerIter)
	res.OpLog = it.ops
	for i := range it.ops {
		op := it.ops[i]
		it.opIdx = i
		if e := it.runOp(op); e != nil {
			return nil, fmt.Errorf("op %d (%s): %v", i, op, e)
		}
		if !op.WantErr {
			it.oracle.Apply(op)
		}
	}
	if b := it.soakCheck(); b != nil {
		res.Breaches = append(res.Breaches, b)
	}
	res.Soaked = true
	return res, nil
}
