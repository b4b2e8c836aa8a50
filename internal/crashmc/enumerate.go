package crashmc

import (
	"fmt"
	"math/rand"

	"arckfs/internal/pmem"
)

// enumerator is the exhaustive-bounded driver: it stops at every
// observation point of a scripted workload — each fence, any Interleave
// hook, and a checkpoint after each op — and checks the crash images the
// persistency model admits there. Observing at the start of a fence is
// sufficient: between two fences the set of dirty lines only grows, so
// the images reachable just before fence N are a superset of those
// reachable at any instant since fence N-1.
type enumerator struct {
	*rig
	res  *Result
	seen map[string]bool // one breach per invariant
	// replay, when set, turns the run into a replay: only the recorded
	// image at the recorded point is checked.
	replay *Breach
}

// enumerate performs one collection pass over cfg's scripted ops, or,
// given a breach to replay, checks just that breach's image.
func enumerate(cfg Config, replay *Breach) (*Result, error) {
	if cfg.System != "arck" {
		return nil, fmt.Errorf("crashmc %s: scripted ops need a recovery path to check; %s has none", cfg.Name, cfg.System)
	}
	e := &enumerator{res: &Result{Config: cfg}, seen: map[string]bool{}, replay: replay}
	r, err := newRig(&e.res.Config, cfg.Seed, e.observe)
	if err != nil {
		return nil, fmt.Errorf("crashmc %s: %v", cfg.Name, err)
	}
	e.rig = r
	r.ops = cfg.Ops
	compacted := r.compactions()
	if err := r.run(func() bool { e.observe(); return false }); err != nil {
		return nil, fmt.Errorf("crashmc %s: %v", cfg.Name, err)
	}
	e.res.Compactions = r.compactions() - compacted
	return e.res, nil
}

// observe is the per-point entry: called through the rig's filter at
// every fence and Interleave hook, and directly as the post-op
// checkpoint.
func (e *enumerator) observe() {
	e.res.Points++
	if e.replay != nil {
		if e.res.Points == e.replay.Crash.Ordinal {
			keep := map[int64]int{}
			for _, lc := range e.replay.Crash.Keep {
				keep[lc.Off] = lc.K
			}
			for _, v := range CheckImage(e.image(e.dev, keepLines(keep)), e.oracle.ExpectPresent(e.inflight)) {
				e.res.Breaches = append(e.res.Breaches, e.breach(0, e.cfg.Seed, e.replay.Crash, v))
			}
		}
		return
	}
	if len(e.res.Breaches) >= maxBreaches {
		return
	}
	if states := e.softStates(); len(states) > 0 {
		e.enumerate(states, e.oracle.ExpectPresent(e.inflight))
	}
}

// enumerate covers one observation point's crash-state space. Each
// dirty line l may persist any prefix of its Versions_l unpersisted
// store batches independently, so the space is the mixed-radix product
// of (Versions_l + 1). Spaces within pointBudget are enumerated
// completely; larger ones get the adversarial corners — nothing,
// everything, each line alone, each line missing — plus sampleN seeded
// random assignments. The corners are what manifest ordering bugs
// deterministically: a §4.2 torn commit IS "marker line alone", and the
// reserveDentry hole IS "record-length line missing".
func (e *enumerator) enumerate(states []pmem.LineState, expect []string) {
	total := 1
	for _, s := range states {
		total *= s.Versions + 1
		if total > pointBudget {
			total = -1
			break
		}
	}
	ks := make([]int, len(states))
	if total > 0 {
		e.res.Exhaustive++
		for {
			if !e.checkAssignment(states, ks, expect) {
				return
			}
			i := 0
			for ; i < len(ks); i++ {
				ks[i]++
				if ks[i] <= states[i].Versions {
					break
				}
				ks[i] = 0
			}
			if i == len(ks) {
				return
			}
		}
	}
	e.res.Sampled++
	tried := map[string]bool{}
	try := func(ks []int) bool {
		key := fmt.Sprint(ks)
		if tried[key] {
			return true
		}
		tried[key] = true
		return e.checkAssignment(states, ks, expect)
	}
	zero := make([]int, len(states))
	full := make([]int, len(states))
	for i, s := range states {
		full[i] = s.Versions
	}
	if !try(zero) || !try(full) {
		return
	}
	for i := range states {
		alone := make([]int, len(states))
		alone[i] = states[i].Versions
		if !try(alone) {
			return
		}
		missing := append([]int(nil), full...)
		missing[i] = 0
		if !try(missing) {
			return
		}
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed + int64(e.res.Points)*1000003))
	for n := 0; n < sampleN; n++ {
		for i, s := range states {
			ks[i] = rng.Intn(s.Versions + 1)
		}
		if !try(ks) {
			return
		}
	}
}

// check mounts the image for one assignment over states and returns its
// violations.
func (e *enumerator) check(states []pmem.LineState, ks []int, expect []string) []Violation {
	keep := make(map[int64]int, len(states))
	for i, s := range states {
		keep[s.Off] = ks[i]
	}
	e.res.Images++
	return CheckImage(e.image(e.dev, keepLines(keep)), expect)
}

// checkAssignment checks one crash image; it returns false once the
// breach budget is exhausted.
func (e *enumerator) checkAssignment(states []pmem.LineState, ks []int, expect []string) bool {
	if vs := e.check(states, ks, expect); len(vs) > 0 {
		e.record(states, ks, expect, vs[0])
	}
	return len(e.res.Breaches) < maxBreaches
}

// violates re-checks a candidate (shrunk) assignment for a specific
// invariant.
func (e *enumerator) violates(states []pmem.LineState, ks []int, expect []string, inv string) (bool, string) {
	for _, v := range e.check(states, ks, expect) {
		if v.Invariant == inv {
			return true, v.Detail
		}
	}
	return false, ""
}

// record registers a violation as a breach, shrinking its line
// assignment greedily while the device state is still live: first drop
// every persisted line the violation does not need, then shorten the
// surviving version prefixes.
func (e *enumerator) record(states []pmem.LineState, ks []int, expect []string, v Violation) {
	if e.seen[v.Invariant] {
		return
	}
	e.seen[v.Invariant] = true
	ks = append([]int(nil), ks...)
	for i := range ks {
		if ks[i] == 0 {
			continue
		}
		old := ks[i]
		ks[i] = 0
		if still, d := e.violates(states, ks, expect, v.Invariant); still {
			v.Detail = d
		} else {
			ks[i] = old
		}
	}
	for i := range ks {
		for ks[i] > 1 {
			ks[i]--
			still, d := e.violates(states, ks, expect, v.Invariant)
			if !still {
				ks[i]++
				break
			}
			v.Detail = d
		}
	}
	crash := Crash{Kind: "point", Ordinal: e.res.Points, OpIndex: e.opIdx}
	for i, k := range ks {
		if k > 0 {
			crash.Keep = append(crash.Keep, LineChoice{Off: states[i].Off, K: k})
		}
	}
	e.res.Breaches = append(e.res.Breaches, e.breach(0, e.cfg.Seed, crash, v))
}

// shrinkOps minimizes a breach's op schedule by re-running candidate
// sub-schedules from scratch — execution is deterministic, so a removal
// either reproduces the same invariant violation or it doesn't. It
// greedily removes ops the breach does not need, then re-collects on the
// final schedule so the crash descriptor and detail describe the shrunk
// run consistently. A run error (e.g. a WantErr mismatch after a removal
// changed an op's outcome) means the candidate schedule is invalid, not
// that the violation is gone.
func shrinkOps(cfg Config, b *Breach) *Breach {
	find := func(ops []Op) *Breach {
		sub := cfg
		sub.Ops = ops
		res, err := enumerate(sub, nil)
		if err != nil {
			return nil
		}
		for _, b2 := range res.Breaches {
			if b2.Invariant == b.Invariant {
				return b2
			}
		}
		return nil
	}
	ops := b.Ops
	for i := len(ops) - 1; i >= 0 && len(ops) > 1; i-- {
		cand := make([]Op, 0, len(ops)-1)
		cand = append(cand, ops[:i]...)
		cand = append(cand, ops[i+1:]...)
		if find(cand) != nil {
			ops = cand
		}
	}
	if shrunk := find(ops); shrunk != nil {
		return shrunk
	}
	// The original breach is still valid; keep it.
	return b
}
