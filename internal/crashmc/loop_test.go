package crashmc

import (
	"reflect"
	"testing"

	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

// TestSeededDeterminism replays one iteration twice from the same
// (config, seed) pair and requires byte-identical op logs and crash
// points — the property breach-artifact replay depends on.
func TestSeededDeterminism(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "det-clean"},
		{Name: "det-bug", Bugs: libfs.BugMissingFence},
		{Name: "det-lie", Faults: pmem.FaultDropFlush | pmem.FaultDropFence | pmem.FaultTearLine},
	} {
		cfg.fill()
		for iter := 0; iter < 6; iter++ {
			seed := int64(1000 + iter)
			a, err := runIteration(&cfg, iter, seed)
			if err != nil {
				t.Fatalf("%s iter %d: %v", cfg.Name, iter, err)
			}
			b, err := runIteration(&cfg, iter, seed)
			if err != nil {
				t.Fatalf("%s iter %d replay: %v", cfg.Name, iter, err)
			}
			if !reflect.DeepEqual(a.ops, b.ops) {
				t.Fatalf("%s iter %d: op logs diverged", cfg.Name, iter)
			}
			if !reflect.DeepEqual(a.crash, b.crash) {
				t.Fatalf("%s iter %d: crash points diverged: %v vs %v",
					cfg.Name, iter, a.crash, b.crash)
			}
			if len(a.breaches) != len(b.breaches) {
				t.Fatalf("%s iter %d: breach counts diverged: %d vs %d",
					cfg.Name, iter, len(a.breaches), len(b.breaches))
			}
		}
	}
}

// TestOracleSelfCheck runs clean ArckFS+ crash loops: every crash image
// must recover to exactly the oracle's expected namespace, and soak
// endings must walk a live namespace identical to the oracle's.
func TestOracleSelfCheck(t *testing.T) {
	res, err := Run(Config{Name: "selfcheck", Iters: 25, Seed: 7, NoArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("clean config breached: %s", res.Summary())
	}
	if res.Crashes == 0 || res.Soaks == 0 {
		t.Fatalf("want both crash and soak endings, got crashes=%d soaks=%d",
			res.Crashes, res.Soaks)
	}
}

// TestBaselineSoak runs the no-recovery baselines in soak-only mode.
func TestBaselineSoak(t *testing.T) {
	for _, sys := range []string{"nova", "kucofs"} {
		res, err := Run(Config{Name: "soak-" + sys, System: sys, Iters: 8, Seed: 3, NoArtifacts: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("%s soak breached: %s", sys, res.Summary())
		}
		if res.Crashes != 0 || res.Soaks != res.Iters {
			t.Fatalf("%s: baselines must soak every iteration: %s", sys, res.Summary())
		}
	}
}

// TestLieModesBreachPatchedSystem is the lie-mode acceptance check: the
// patched ArckFS+ survives every honest crash the loop throws at it
// (TestOracleSelfCheck), yet a lying device surfaces torn commits and
// verified-state loss on the very same workloads — bug classes honest
// crash-state enumeration cannot reach.
func TestLieModesBreachPatchedSystem(t *testing.T) {
	for _, mode := range []pmem.FaultMode{pmem.FaultDropFlush, pmem.FaultDropFence} {
		res := rowResult(t, "lie-"+mode.String())
		if res.Config.Bugs != libfs.BugsNone || res.Config.Faults != mode {
			t.Fatalf("%s: row is not the patched system under that lie: %+v", mode, res.Config)
		}
		if !res.OK() {
			t.Fatalf("%s: %s", mode, res.Summary())
		}
		if len(res.Breaches) == 0 {
			t.Fatalf("%s: lying device found no breach in %d iters", mode, res.Iters)
		}
	}
}

// TestAimedDropFlush aims the lie at exactly one operation: a fault plan
// whose Filter is active only while the victim file's create commits, so
// every write-back of that one §4.2-style commit path is silently
// dropped while the rest of the execution — and the entire honest
// control run — persists truthfully. The release protocol still verifies
// the file (its reads are volatile), so the crash image must fail
// I3-verified-durable, and only under the lie.
func TestAimedDropFlush(t *testing.T) {
	run := func(lie bool) []Violation {
		cfg := Config{Name: "aimed"}
		cfg.fill()
		r, err := newRig(&cfg, 1, func() {})
		if err != nil {
			t.Fatal(err)
		}
		active := false
		if lie {
			p := pmem.NewFaultPlan(pmem.FaultDropFlush, 1)
			p.FlushEvery = 1
			p.Filter = func(int64) bool { return active }
			r.dev.SetFaultPlan(p)
		}
		r.ops = []Op{{Kind: OpCreate, Path: "/w0/victim" + longName}, {Kind: OpRelease}}
		active = true // until the victim's create completes
		if err = r.run(func() bool { active = false; return false }); err != nil {
			t.Fatal(err)
		}
		return CheckImage(r.dev.CrashImage(pmem.CrashDropAll), r.oracle.ExpectPresent(nil))
	}

	if vs := run(false); len(vs) != 0 {
		t.Fatalf("honest run breached: %v", vs)
	}
	vs := run(true)
	if len(vs) == 0 {
		t.Fatalf("aimed dropped flush on the commit path went undetected")
	}
	for _, v := range vs {
		if v.Invariant != InvNoTornCommit && v.Invariant != InvVerifiedDurable {
			t.Fatalf("unexpected invariant %s: %s", v.Invariant, v.Detail)
		}
	}
}
