package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
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
// unsuppressed findings against the // want comments: every finding must
// be expected, and every expectation must fire.
func TestGolden(t *testing.T) {
	root := filepath.Join("testdata", "src")
	cases := []struct {
		dir            string
		checker        string
		wantSuppressed int
	}{
		{"persistorder", "persistorder", 0},
		{"flushcheck", "flushcheck", 1},
		{"lockorder", "lockorder", 0},
		{"rcusection", "rcusection", 0},
		{"counterreg", "counterreg", 0},
		{"retirecheck", "retirecheck", 1},
		{"publishorder", "publishorder", 0},
		{"lockcycle", "lockorder", 0},
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

			suppressed := 0
			for _, f := range findings {
				if f.Suppressed {
					suppressed++
					if f.Reason == "" {
						t.Errorf("suppressed finding with empty reason: %s", f)
					}
					continue
				}
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
			if suppressed != tc.wantSuppressed {
				t.Errorf("suppressed findings = %d, want %d", suppressed, tc.wantSuppressed)
			}
		})
	}
}

// TestMalformedAllows checks that broken //arcklint:allow directives are
// themselves reported and do not suppress anything. (These fixtures
// cannot carry want comments: appended text would parse as the
// directive's reason.)
func TestMalformedAllows(t *testing.T) {
	root := filepath.Join("testdata", "src")
	dir := filepath.Join(root, "badallow")
	prog, err := LoadDirs(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := Select("flushcheck")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, analyzers)

	var meta, unsuppressed, suppressed []Finding
	for _, f := range findings {
		switch {
		case f.Checker == "arcklint":
			meta = append(meta, f)
		case f.Suppressed:
			suppressed = append(suppressed, f)
		default:
			unsuppressed = append(unsuppressed, f)
		}
	}

	wantMeta := []string{
		`allow directive for "flushcheck" requires a reason`,
		`unknown checker "nosuchchecker"`,
	}
	if len(meta) != len(wantMeta) {
		t.Fatalf("arcklint meta-findings = %d, want %d: %v", len(meta), len(wantMeta), meta)
	}
	for i, want := range wantMeta {
		if !strings.Contains(meta[i].Message, want) {
			t.Errorf("meta finding %d = %q, want substring %q", i, meta[i].Message, want)
		}
	}

	// The malformed directives must not suppress their stores; only the
	// valid one does.
	if len(unsuppressed) != 2 {
		t.Errorf("unsuppressed flushcheck findings = %d, want 2: %v", len(unsuppressed), unsuppressed)
	}
	if len(suppressed) != 1 {
		t.Fatalf("suppressed findings = %d, want 1: %v", len(suppressed), suppressed)
	}
	if want := "recovery rewrites this line before readers see it"; suppressed[0].Reason != want {
		t.Errorf("suppression reason = %q, want %q", suppressed[0].Reason, want)
	}
}

// TestSelect covers the checker-selection surface the CLI exposes.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != 7 {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := Select("persistorder, lockorder")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(two) = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch): expected error")
	}
}

// TestEveryCheckerOwnsACell enforces the suite's rent rule: a checker
// stays only while it owns a "✓ <name>" cell in the arcklint column of
// docs/TESTING.md's matrix, a bug class it is recorded catching. Deleting
// a checker's row, or adding a checker without one, fails here.
func TestEveryCheckerOwnsACell(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "TESTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, matrix, ok := strings.Cut(string(data), "## The matrix")
	if !ok {
		t.Fatal(`docs/TESTING.md has no "## The matrix" section`)
	}
	owned := make(map[string]bool)
	col := -1
	for _, line := range strings.Split(matrix, "\n") {
		if !strings.HasPrefix(line, "|") {
			if col >= 0 {
				break // the table has ended
			}
			continue
		}
		// An escaped pipe inside a cell does not split it.
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
		if col < 0 {
			for i, c := range cells {
				if strings.HasPrefix(strings.TrimSpace(c), "arcklint") {
					col = i
				}
			}
			continue
		}
		if col < len(cells) {
			for _, m := range ownedRe.FindAllStringSubmatch(cells[col], -1) {
				owned[m[1]] = true
			}
		}
	}
	if col < 0 {
		t.Fatal("the matrix has no arcklint column")
	}
	for _, a := range Analyzers() {
		if !owned[a.Name] {
			t.Errorf("checker %s owns no ✓ in the matrix's arcklint column: record the mutation only it catches, or delete it", a.Name)
		}
	}
}

var ownedRe = regexp.MustCompile(`✓ ([a-z]+)`)

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

// TestSuppressionAudit covers the -suppressions surface: the live
// directive (gating a summary propagation) and the stale one must be
// told apart.
func TestSuppressionAudit(t *testing.T) {
	root := filepath.Join("testdata", "src")
	prog, err := LoadDirs(root, []string{filepath.Join(root, "retirecheck")})
	if err != nil {
		t.Fatal(err)
	}
	entries, findings := AuditSuppressions(prog)
	for _, f := range findings {
		if f.Checker == "arcklint" {
			t.Errorf("unexpected malformed directive: %s", f)
		}
	}
	if len(entries) != 2 {
		t.Fatalf("suppression entries = %d, want 2: %v", len(entries), entries)
	}
	// Entries are sorted by line: poolPrimitive's live allow first, then
	// staleAllowed's leftover.
	if entries[0].Stale {
		t.Errorf("poolPrimitive directive reported stale; it suppresses a finding and gates MayRecycle")
	}
	if !entries[1].Stale {
		t.Errorf("staleAllowed directive not reported stale; it covers a retire call that cannot fire")
	}
	for _, e := range entries {
		if e.Checker != "retirecheck" || e.Reason == "" {
			t.Errorf("bad entry: %+v", e)
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
	f := Finding{Checker: "flushcheck", Message: "raw store never flushed"}
	f.Pos.Filename = "dir.go"
	f.Pos.Line = 256
	fmt.Println(f)
	// Output: dir.go:256: flushcheck: raw store never flushed
}
