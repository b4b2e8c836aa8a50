package crashmc

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestCampaignGolden pins the whole crash campaign at seed 1: every
// row's summary line and the sorted (config, iter, crash point,
// invariant, detail) breach list must match testdata/campaign_seed1.golden
// byte for byte. Execution is deterministic, so any diff is a behaviour
// change in the engine, the generator, or the system under test.
func TestCampaignGolden(t *testing.T) {
	var summaries, breaches []string
	for _, res := range campaignResults(t) {
		if res.Config.Name == "compact-churn" {
			continue // checked by TestLoopCompactChurnKills; the golden predates it
		}
		summaries = append(summaries, res.Summary())
		for _, b := range res.Breaches {
			breaches = append(breaches, fmt.Sprintf("%s iter=%d %s %s: %s",
				b.Config, b.Iter, b.Crash, b.Invariant, b.Detail))
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
