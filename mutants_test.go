package arckfs_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// mutantHeader is the part of a testdata/mutants diff before its first
// "diff --git" line, which git apply ignores: the checker the mutant was
// made for and what each detector scripts/mutants.sh runs is expected to
// do with it.
var (
	checkerLine = regexp.MustCompile(`(?m)^Checker: [a-z]+`)
	expectLine  = regexp.MustCompile(`(?m)^Expect: ((arcklint|go-test|race|arckcrash) (caught|missed)(; |$))+$`)
)

// TestMutantsApply checks that every mutant still applies to the tree and
// carries the header scripts/mutants.sh reads, so the matrix rows that
// cite one stay re-runnable.
func TestMutantsApply(t *testing.T) {
	diffs, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.diff"))
	if err != nil || len(diffs) == 0 {
		t.Fatalf("no testdata/mutants/*.diff (%v)", err)
	}
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git apply is what checks a mutant, and git is not installed")
	}
	for _, d := range diffs {
		data, err := os.ReadFile(d)
		if err != nil {
			t.Fatal(err)
		}
		if !checkerLine.Match(data) || !expectLine.Match(data) {
			t.Errorf("%s: the header needs a Checker: line and an Expect: line", d)
		}
		if out, err := exec.Command(git, "apply", "--check", d).CombinedOutput(); err != nil {
			t.Errorf("%s no longer applies to the tree (%v):\n%s", d, err, out)
		}
	}
}
