package crashmc

import (
	"fmt"
	"math/rand"

	"arckfs/internal/kernel"
	"arckfs/internal/pmem"
)

// InvLiveMismatch is the soak invariant: after a crash-free run the live
// namespace must equal the oracle's expected namespace exactly. It is
// the only invariant checkable on the baselines (which have no recovery
// path) and doubles as the oracle self-check on ArckFS.
const InvLiveMismatch = "L1-live-namespace"

// killpointPool is the loop driver's choice of whitebox kill sites —
// every registered site but kernel.recover.pass, which the recovery
// double fault arms itself. The seeded draw indexes into it, so the
// order is part of every recorded seed.
var killpointPool = []struct {
	site string
	// firstHit: the site is reached at most once per generated workload,
	// so the 1..24 hit draw would never land on it; die on the first.
	firstHit bool
	// unreachable: no generated workload reaches the site at all; the
	// strict sweep reports it instead of failing on it.
	unreachable bool
}{
	{site: "libfs.create.marker"},
	{site: "pmem.batch.barrier"},
	// Fires only when a Drain finds lines queued: an op must end off an
	// epoch boundary (only a failed create under BugAuxCoreRace alone
	// does) and be followed at once by an ownership-transfer Drain on
	// the same thread (a cross-directory directory rename, CommitInode,
	// Detach) — and the generator stays inside same-parent renames on
	// purpose (see genOps).
	{site: "pmem.batch.drain", unreachable: true},
	// A compaction publishes once per ~170 dead slots.
	{site: "libfs.compact.swap", firstHit: true},
}

// SiteKills sums, per whitebox killpoint site, the iterations of rs that
// died there.
func SiteKills(rs []*Result) map[string]int {
	kills := map[string]int{}
	for _, r := range rs {
		for site, n := range r.Sites {
			kills[site] += n
		}
	}
	return kills
}

// Unreached is the campaign's strict sweep over SiteKills: the
// registered killpoint sites a generated workload can reach at which
// nothing ever died. A site listed here is covered in name only.
func Unreached(kills map[string]int) []string {
	var missed []string
	for _, site := range pmem.KillpointSites() {
		reachable := true
		for _, p := range killpointPool {
			if p.site == site && p.unreachable {
				reachable = false
			}
		}
		if reachable && kills[site] == 0 {
			missed = append(missed, site)
		}
	}
	return missed
}

// loop is the seeded-random driver: cfg.Iters iterations, each a
// generated workload cut by one seeded kill and checked on one policy
// image.
func loop(cfg Config) (*Result, error) {
	res := &Result{Config: cfg, Sites: map[string]int{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Iters; i++ {
		iterSeed := rng.Int63()
		it, err := runIteration(&res.Config, i, iterSeed)
		if err != nil {
			return nil, fmt.Errorf("crashmc %s: iter %d (seed %d): %v", cfg.Name, i, iterSeed, err)
		}
		res.Iters++
		if it.soaked {
			res.Soaks++
		}
		if it.crash != nil {
			res.Crashes++
			res.Images++
			if it.crash.Site != "" {
				res.Sites[it.crash.Site]++
			}
			if it.compacting {
				res.CompactionKills++
			}
		}
		res.Breaches = append(res.Breaches, it.breaches...)
	}
	return res, nil
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

// iteration carries one loop run's state. The rng is drawn in a fixed
// order — workload, kill, image policy, recovery tear — so an iteration
// is a pure function of (Config, seed).
type iteration struct {
	*rig
	iter int
	seed int64
	rng  *rand.Rand

	kill   killSpec
	fences int

	img           []byte
	crash         *Crash // nil when the iteration never crashed
	crashInflight *Op
	compacting    bool // the kill landed inside a log compaction
	soaked        bool
	breaches      []*Breach
}

// runIteration executes one fully seeded iteration. It is the replay
// unit: (cfg, iterSeed) determine the workload, fault plan, crash
// point, and crash image completely.
func runIteration(cfg *Config, iter int, iterSeed int64) (*iteration, error) {
	it := &iteration{iter: iter, seed: iterSeed, rng: rand.New(rand.NewSource(iterSeed))}
	r, err := newRig(cfg, iterSeed, it.atFence)
	if err != nil {
		return nil, err
	}
	it.rig = r
	// Generate the workload against a mirror oracle; generation draws
	// from the iteration rng before execution starts, so the op log is a
	// pure function of the seed.
	r.ops = genOps(it.rng, NewOracle(cfg.Warmup), cfg.OpsPerIter)
	if r.dev != nil {
		it.kill = it.pickKill()
	}
	if it.kill.kind == "killpoint" {
		pmem.ArmKillpoint(it.kill.site, it.kill.n, func(site string) {
			if it.crash == nil {
				it.capture("killpoint", site, it.kill.n)
				panic(killSentinel{})
			}
		})
		defer pmem.DisarmKillpoint()
	}
	if err := it.runWorkload(); err != nil {
		return nil, err
	}
	pmem.DisarmKillpoint()
	if r.dev != nil {
		r.dev.SetFenceObserver(nil)
	}
	if it.crash == nil {
		// No kill fired (a baseline, a fence ordinal past the run, a
		// killpoint site not reached): soak-verify the live namespace.
		it.soakCheck()
		if r.dev == nil {
			return it, nil
		}
		// Still exercise recovery with an end-of-run checkpoint crash so
		// every iteration covers the mount path.
		it.opIdx = len(r.ops) - 1
		it.capture("checkpoint", "", 0)
	}
	it.verifyCrash()
	return it, nil
}

// atFence is the loop's observation point: count the fence and die on
// the scheduled one.
func (it *iteration) atFence() {
	if it.crash != nil {
		return
	}
	it.fences++
	if (it.kill.kind == "fence" || it.kill.kind == "recovery") && it.fences == it.kill.n {
		it.capture(it.kill.kind, "", it.fences)
		panic(killSentinel{})
	}
}

// pickKill draws the iteration's crash schedule.
func (it *iteration) pickKill() killSpec {
	k := killSpec{policy: it.rng.Intn(4)}
	switch roll := it.rng.Intn(100); {
	case roll < 40:
		k.kind = "fence"
		k.n = 1 + it.rng.Intn(4*it.cfg.OpsPerIter)
	case roll < 70:
		k.kind = "killpoint"
		p := killpointPool[it.rng.Intn(len(killpointPool))]
		k.site = p.site
		if k.n = 1 + it.rng.Intn(24); p.firstHit {
			k.n = 1
		}
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

// runWorkload executes the generated ops, recovering the kill sentinel.
func (it *iteration) runWorkload() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok || it.crash == nil {
				panic(r)
			}
			err = nil
		}
	}()
	return it.run(func() bool {
		if it.kill.kind == "checkpoint" && it.opIdx == it.kill.n {
			it.capture("checkpoint", "", 0)
			return true
		}
		return false
	})
}

// capture materializes the crash image under the iteration's policy and
// records the crash point. Runs synchronously at the kill site, before
// the sentinel unwinds.
func (it *iteration) capture(kind, site string, ordinal int) {
	name, keep := it.pickPolicy(it.softStates())
	it.img = it.image(it.dev, keepLines(keep))
	it.crash = &Crash{Kind: kind, Site: site, Ordinal: ordinal, OpIndex: it.opIdx, Policy: name}
	it.crashInflight = it.inflight
	it.compacting = it.inCompaction
}

// pickPolicy draws the iteration's line persistence policy over the
// soft dirty lines.
func (it *iteration) pickPolicy(soft []pmem.LineState) (string, map[int64]int) {
	keep := make(map[int64]int, len(soft))
	switch it.kill.policy {
	case 0:
		return "drop-all", keep
	case 1:
		if len(soft) > 0 {
			s := soft[it.rng.Intn(len(soft))]
			keep[s.Off] = s.Versions
		}
		return "one-alone", keep
	case 2:
		drop := -1
		if len(soft) > 0 {
			drop = it.rng.Intn(len(soft))
		}
		for i, s := range soft {
			if i != drop {
				keep[s.Off] = s.Versions
			}
		}
		return "all-but-one", keep
	}
	for _, s := range soft {
		keep[s.Off] = it.rng.Intn(s.Versions + 1)
	}
	return "random", keep
}

// verifyCrash recovers the captured image and checks the invariants,
// recording one breach per violated invariant.
func (it *iteration) verifyCrash() {
	img := it.img
	if it.kill.kind == "recovery" {
		img = it.interruptRecovery(img)
	}
	seen := map[string]bool{}
	for _, v := range CheckImage(img, it.oracle.ExpectPresent(it.crashInflight)) {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			it.breaches = append(it.breaches, it.breach(it.iter, it.seed, *it.crash, v))
		}
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
		img2 = it.image(rdev, func(_ int64, versions int) int { return it.rng.Intn(versions + 1) })
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
func (it *iteration) soakCheck() {
	it.soaked = true
	detail := ""
	if got, err := walkLive(it.ths[it.cur]); err != nil {
		detail = fmt.Sprintf("namespace walk failed: %v", err)
	} else {
		detail = diffNamespaces(it.oracle.Live(), got)
	}
	if detail != "" {
		crash := Crash{Kind: "soak", OpIndex: len(it.ops) - 1}
		it.breaches = append(it.breaches, it.breach(it.iter, it.seed, crash, Violation{InvLiveMismatch, detail}))
	}
}
