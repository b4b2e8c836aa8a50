package crashmc_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"arckfs/internal/crashloop"
	"arckfs/internal/crashmc"
)

// TestCampaignGolden pins the whole crash campaign at seed 1: every
// row's summary line and the sorted (config, iter, crash point,
// invariant, detail) breach list must match testdata/campaign_seed1.golden
// byte for byte. Execution is deterministic, so any diff is a behaviour
// change in the engine, the generator, or the system under test.
func TestCampaignGolden(t *testing.T) {
	var summaries, breaches []string
	for _, cfg := range crashmc.Campaign() {
		res, err := crashmc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
		for _, ce := range res.Counterexamples {
			breaches = append(breaches, fmt.Sprintf("%s iter=0 point#%d op=%d keep=%d %s: %s",
				cfg.Name, ce.Point, ce.OpIndex, len(ce.Keep), ce.Invariant, ce.Detail))
		}
	}
	for _, cfg := range crashloop.Campaign() {
		cfg.Iters, cfg.Seed, cfg.NoArtifacts = 40, 1, true
		res, err := crashloop.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
		for _, b := range res.Breaches {
			breaches = append(breaches, fmt.Sprintf("%s iter=%d %s %s: %s",
				cfg.Name, b.Iter, b.Crash, b.Invariant, b.Detail))
		}
	}
	sort.Strings(breaches)
	got := strings.Join(summaries, "\n") + "\n\n" + strings.Join(breaches, "\n") + "\n"
	want, err := os.ReadFile("testdata/campaign_seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("campaign diverged from testdata/campaign_seed1.golden; got:\n%s", got)
	}
}
