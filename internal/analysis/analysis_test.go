package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe extracts golden expectations of the form
//
//	// want "regexp"
//
// from fixture source lines. The quoted text is a regular expression
// matched against the finding message reported on that line.
var wantRe = regexp.MustCompile(`// want "(.*)"`)

type wantComment struct {
	file    string // base filename
	line    int
	pattern *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, dir string) []*wantComment {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantComment
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[1], err)
			}
			wants = append(wants, &wantComment{file: e.Name(), line: i + 1, pattern: pat})
		}
	}
	return wants
}

// TestGolden runs each checker over its fixture package and diffs the
// findings against the // want comments: every finding must be expected,
// and every expectation must fire.
func TestGolden(t *testing.T) {
	root := filepath.Join("testdata", "src")
	cases := []struct{ dir, checker string }{
		{"persistorder", "persistorder"},
		{"lockorder", "lockorder"},
		{"rcusection", "rcusection"},
		{"counterreg", "counterreg"},
		{"retirecheck", "retirecheck"},
		{"lockcycle", "lockorder"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join(root, tc.dir)
			prog, err := LoadDirs(root, []string{dir})
			if err != nil {
				t.Fatal(err)
			}
			analyzers, err := Select(tc.checker)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run(prog, analyzers)
			wants := collectWants(t, dir)

			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if w.file == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line &&
						w.pattern.MatchString(f.Message) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none",
						w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// TestSelect covers the checker-selection surface the CLI exposes.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != 5 {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want 5, nil", len(all), err)
	}
	two, err := Select("persistorder, lockorder")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(two) = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch): expected error")
	}
}

// matrix returns docs/TESTING.md's matrix as its header row and its body
// rows, each split into trimmed cells (an escaped pipe does not split).
func matrix(t *testing.T) (header []string, rows [][]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "TESTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(string(data), "## The matrix")
	if !ok {
		t.Fatal(`docs/TESTING.md has no "## The matrix" section`)
	}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "|") {
			if header != nil {
				break // the table has ended
			}
			continue
		}
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case header == nil:
			header = cells
		case !strings.HasPrefix(cells[1], "---"):
			rows = append(rows, cells)
		}
	}
	return header, rows
}

// column returns the index of the matrix column whose header starts with
// prefix.
func column(t *testing.T, header []string, prefix string) int {
	t.Helper()
	for i, c := range header {
		if strings.HasPrefix(c, prefix) {
			return i
		}
	}
	t.Fatalf("the matrix has no %q column", prefix)
	return 0
}

// TestEveryCheckerOwnsACell enforces the suite's rent rule: a checker
// stays only while it owns a row of docs/TESTING.md's matrix, a bug class
// only it is recorded catching. Its arcklint cell reads "✓ <name>", no
// other detector column (both arckcrash drivers, -race, TestCostBounds)
// holds a ✓, and its targeted-test cell starts with "—". Deleting a
// checker's row, or adding a checker without one, fails here.
func TestEveryCheckerOwnsACell(t *testing.T) {
	header, rows := matrix(t)
	lint, targeted := column(t, header, "arcklint"), column(t, header, "Targeted test")
	others := []int{
		column(t, header, "arckcrash enumerate"), column(t, header, "arckcrash loop"),
		column(t, header, "`-race`"), column(t, header, "TestCostBounds"),
	}
	owned := make(map[string]bool)
	for _, row := range rows {
		if !strings.HasPrefix(row[targeted], "—") ||
			slices.ContainsFunc(others, func(i int) bool { return strings.Contains(row[i], "✓") }) {
			continue
		}
		for _, m := range ownedRe.FindAllStringSubmatch(row[lint], -1) {
			owned[m[1]] = true
		}
	}
	for _, a := range Analyzers() {
		if !owned[a.Name] {
			t.Errorf("checker %s owns no matrix row where it is the only ✓ and no targeted test catches the class: record the mutation only it catches, or delete it", a.Name)
		}
	}
}

var ownedRe = regexp.MustCompile(`✓ ([a-z]+)`)

// TestArcklintRowsCiteAMutant requires every matrix row with an arcklint
// ✓ to cite the mutant that backs it, testdata/mutants/<name>.diff, which
// scripts/mutants.sh re-runs (the root package's TestDocCommandsResolve
// checks that a cited path exists).
func TestArcklintRowsCiteAMutant(t *testing.T) {
	header, rows := matrix(t)
	lint := column(t, header, "arcklint")
	for _, row := range rows {
		if strings.Contains(row[lint], "✓") && !mutantRe.MatchString(strings.Join(row, "|")) {
			t.Errorf("matrix row %q has an arcklint ✓ but cites no testdata/mutants/*.diff", row[1])
		}
	}
}

var mutantRe = regexp.MustCompile(`testdata/mutants/[a-z0-9-]+\.diff`)

// TestLockCycles pins the whole-program acquisition-graph rule: the
// seeded two-function cycle in the lockcycle fixture must produce a
// cycle finding naming both classes (the pairwise inversion alone is
// checked by TestGolden).
func TestLockCycles(t *testing.T) {
	root := filepath.Join("testdata", "src")
	prog, err := LoadDirs(root, []string{filepath.Join(root, "lockcycle")})
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := Select("lockorder")
	if err != nil {
		t.Fatal(err)
	}
	cycles := 0
	for _, f := range Run(prog, analyzers) {
		if strings.Contains(f.Message, "lock-order cycle among classes") {
			cycles++
			if want := "libfs/diridx, libfs/dirtail"; !strings.Contains(f.Message, want) {
				t.Errorf("cycle finding %q does not name %q", f.Message, want)
			}
		}
	}
	if cycles != 1 {
		t.Errorf("lock-order cycle findings = %d, want 1", cycles)
	}
}

// TestSummaryDeterminism loads the same fixtures twice from scratch and
// requires byte-identical JSON for the full finding set: the summary
// engine's SCC order, fixpoint, and via-chain strings must not depend on
// map iteration order.
func TestSummaryDeterminism(t *testing.T) {
	root := filepath.Join("testdata", "src")
	dirs := []string{
		filepath.Join(root, "retirecheck"),
		filepath.Join(root, "rcusection"),
		filepath.Join(root, "lockorder"),
	}
	run := func() []byte {
		t.Helper()
		prog, err := LoadDirs(root, dirs)
		if err != nil {
			t.Fatal(err)
		}
		findings := Run(prog, Analyzers())
		// Strip absolute paths so the comparison covers content, not cwd.
		for i := range findings {
			findings[i].Pos.Filename = filepath.Base(findings[i].Pos.Filename)
		}
		data, err := json.Marshal(findings)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := run()
	for i := 0; i < 3; i++ {
		if next := run(); !bytes.Equal(first, next) {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i+1, first, next)
		}
	}
}

// TestFindingString pins the file:line: checker: message format the CI
// job and editors parse.
func TestFindingString(t *testing.T) {
	f := Finding{Checker: "persistorder", Message: "m"}
	f.Pos.Filename = "dir.go"
	f.Pos.Line = 7
	if got, want := f.String(), "dir.go:7: persistorder: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestExpandPatterns checks testdata is skipped by ./... expansion — the
// fixture module must never leak into a real-tree run.
func TestExpandPatterns(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	_, dirs, err := ExpandPatterns(cwd, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("ExpandPatterns(./...) included %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Errorf("expected only this package dir under %s, got %v", cwd, dirs)
	}
}

func ExampleFinding_String() {
	f := Finding{Checker: "lockorder", Message: "lock class libfs/minode acquired twice"}
	f.Pos.Filename = "rename.go"
	f.Pos.Line = 144
	fmt.Println(f)
	// Output: rename.go:144: lockorder: lock class libfs/minode acquired twice
}
