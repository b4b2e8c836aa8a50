package crashmc

import (
	"os"
	"sync"
	"testing"

	"arckfs/internal/pmem"
)

// The whole campaign runs once per test binary, at the CLI's defaults
// (-iters 40 -seed 1) and with its artifacts in a scratch directory;
// every test that needs a row's result shares it. Results are read-only.
var campaign struct {
	once sync.Once
	dir  string
	res  []*Result
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if campaign.dir != "" {
		os.RemoveAll(campaign.dir)
	}
	os.Exit(code)
}

func campaignResults(t *testing.T) []*Result {
	t.Helper()
	campaign.once.Do(func() {
		if campaign.dir, campaign.err = os.MkdirTemp("", "crashmc-campaign"); campaign.err != nil {
			return
		}
		for _, cfg := range Campaign() {
			cfg.ArtifactDir = campaign.dir
			res, err := Run(cfg)
			if err != nil {
				campaign.err = err
				return
			}
			campaign.res = append(campaign.res, res)
		}
	})
	if campaign.err != nil {
		t.Fatal(campaign.err)
	}
	return campaign.res
}

// rowResult returns the shared result of one campaign row.
func rowResult(t *testing.T, name string) *Result {
	t.Helper()
	for _, res := range campaignResults(t) {
		if res.Config.Name == name {
			return res
		}
	}
	t.Fatalf("no campaign row %q", name)
	return nil
}

// rowConfig returns one campaign row's config, for tests that run it
// (or a variation) themselves.
func rowConfig(t *testing.T, name string) Config {
	t.Helper()
	for _, cfg := range Campaign() {
		if cfg.Name == name {
			cfg.NoArtifacts = true
			return cfg
		}
	}
	t.Fatalf("no campaign row %q", name)
	return Config{}
}

// TestCampaignOracle is the engine's acceptance test: every campaign
// row must match its Expect oracle — the §4.2 missing-fence bug and the
// PR 3 reserveDentry record-length hole are rediscovered from their bug
// flags alone by both drivers, lying devices breach the patched system,
// and the patched ArckFS+ on an honest device yields nothing under the
// same budgets.
func TestCampaignOracle(t *testing.T) {
	for _, res := range campaignResults(t) {
		res := res
		t.Run(res.Config.Name, func(t *testing.T) {
			if !res.OK() {
				var got []string
				for _, b := range res.Breaches {
					got = append(got, b.String())
				}
				t.Fatalf("oracle mismatch: expected %v, got %d breach(es): %v",
					res.Config.Expect, len(res.Breaches), got)
			}
			if res.Points == 0 && res.Iters == 0 {
				t.Fatal("no observation points visited and no iterations run")
			}
		})
	}
}

// TestCampaignReachesEverySite is the strict sweep cmd/arckcrash applies
// to a full campaign: every registered killpoint site a generated
// workload can reach must have killed at least one iteration of some
// row. The compact-churn row is what reaches libfs.compact.swap, and it
// must report kills inside the compaction it provokes.
func TestCampaignReachesEverySite(t *testing.T) {
	if missed := Unreached(SiteKills(campaignResults(t))); len(missed) > 0 {
		t.Errorf("no campaign row ever died at killpoint(s) %v", missed)
	}
	if res := rowResult(t, "compact-churn"); res.CompactionKills == 0 || res.Sites["libfs.compact.swap"] == 0 {
		t.Errorf("compact-churn landed no kill inside a compaction: %s %v", res.Summary(), res.Sites)
	}
	// The sweep must notice a row set that misses a site.
	if missed := Unreached(rowResult(t, "arckfs-plus").Sites); len(missed) != 1 || missed[0] != "libfs.compact.swap" {
		t.Errorf("sweep over arckfs-plus alone reports %v, want only libfs.compact.swap", missed)
	}
}

// TestKillpointPoolCoversSites keeps a newly registered site from being
// forgotten: the loop's pool must be every registered site except the
// one the recovery double fault arms itself.
func TestKillpointPoolCoversSites(t *testing.T) {
	want := map[string]bool{}
	for _, site := range pmem.KillpointSites() {
		if site != "kernel.recover.pass" {
			want[site] = true
		}
	}
	for _, p := range killpointPool {
		if !want[p.site] {
			t.Errorf("pool site %s is not registered in pmem.KillpointSites (or listed twice)", p.site)
		}
		delete(want, p.site)
	}
	for site := range want {
		t.Errorf("registered site %s is missing from the loop's pool", site)
	}
}

// TestReplayBothDrivers replays every breach of the campaign — shrunk
// enumerated images and seeded kills alike — from its artifact alone:
// the replay must re-find the same invariant at exactly the same crash
// descriptor. For the rows whose breach comes from a bug flag, the same
// record replayed as ArckFS+ must not reproduce: the fixed ordering
// either fences the state early, making the recorded image benign, or
// never reaches an equivalent dirty state at the recorded point.
func TestReplayBothDrivers(t *testing.T) {
	drivers := map[bool]int{}
	for _, res := range campaignResults(t) {
		for _, found := range res.Breaches {
			if found.Artifact == "" {
				t.Fatalf("breach has no artifact path: %s", found)
			}
			b, err := LoadBreach(found.Artifact)
			if err != nil {
				t.Fatal(err)
			}
			if b.Invariant != found.Invariant || b.IterSeed != found.IterSeed || b.Crash.String() != found.Crash.String() {
				t.Fatalf("artifact round-trip mangled the breach: %v vs %v", b, found)
			}
			out, err := Replay(b)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Reproduced {
				t.Errorf("replay of %s did not reproduce %s at %s (found %v)",
					found.Artifact, b.Invariant, b.Crash, out.Breaches)
			}
			drivers[res.Config.enumerated()]++
			if b.Bugs == 0 {
				continue
			}
			b.Bugs = 0
			if out, err = Replay(b); err != nil {
				t.Fatal(err)
			}
			if out.Reproduced {
				t.Errorf("%s: patched replay still violates %s at %s", found.Artifact, b.Invariant, b.Crash)
			}
		}
	}
	if drivers[true] == 0 || drivers[false] == 0 {
		t.Fatalf("want breaches from both drivers, got enumerated=%d looped=%d", drivers[true], drivers[false])
	}
}

// TestExpectSemantics checks Result.OK's rules directly: nothing outside
// Expect ever; all of Expect for an enumerated row, at least one of it
// for a looped one.
func TestExpectSemantics(t *testing.T) {
	mk := func(scripted bool, expect []string, invs ...string) *Result {
		r := &Result{Config: Config{Expect: expect}}
		if scripted {
			r.Config.Ops = []Op{{Kind: OpRelease}}
		}
		for _, inv := range invs {
			r.Breaches = append(r.Breaches, &Breach{Invariant: inv})
		}
		return r
	}
	both := []string{InvNoTornCommit, InvVerifiedDurable}
	for _, scripted := range []bool{false, true} {
		if !mk(scripted, nil).OK() {
			t.Fatal("clean config with no breaches must be OK")
		}
		if mk(scripted, nil, InvNoTornCommit).OK() {
			t.Fatal("clean config with a breach must fail")
		}
		if mk(scripted, []string{InvNoTornCommit}).OK() {
			t.Fatal("expected breach not found must fail")
		}
		if !mk(scripted, []string{InvNoTornCommit}, InvNoTornCommit).OK() {
			t.Fatal("expected breach found must be OK")
		}
		if mk(scripted, []string{InvNoTornCommit}, InvRepairIdempotent).OK() {
			t.Fatal("unexpected invariant must fail even when another was expected")
		}
		if got := mk(scripted, both, InvNoTornCommit).OK(); got != !scripted {
			t.Fatalf("one of two expected invariants: scripted=%v OK=%v", scripted, got)
		}
	}
}
