// Command arcklint runs the repository's persist-ordering,
// crash-consistency, and lock-free-plane static analyzer suite
// (internal/analysis) over a set of package patterns and reports
// findings as "file:line: checker: message" lines. It exits 1 when any
// unsuppressed finding remains (under -baseline: when the findings drift
// from the snapshot), 2 on usage or load errors.
//
// Usage:
//
//	arcklint [-json] [-checker list] [-suppressions [-strict]]
//	         [-baseline file] [-write-baseline file] [patterns ...]
//
// Patterns default to ./... and accept plain directories, dir/..., and
// ./... forms. Suppressions are written in source as
// "//arcklint:allow <checker> <reason>"; the reason is mandatory.
//
// -suppressions switches to audit mode: instead of findings it lists
// every allow directive with its reason, marking directives that no
// longer suppress anything as STALE. Stale directives exit 1 only under
// -strict (CI uses -strict so dead allows cannot linger).
//
// -baseline compares the run against a checked-in snapshot
// (scripts/arcklint_baseline.json): the finding set must match exactly,
// and the analysis must finish within twice the snapshot's recorded
// seconds (floored at 2s to absorb runner noise) — a coarse guard
// against both silent finding drift and superlinear slowdowns in the
// summary engine. A finding the snapshot records is expected: it is
// still printed, but an unsuppressed one fails the run only when no
// baseline is given. -write-baseline regenerates the snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"arckfs/internal/analysis"
)

// baselineFile is the -baseline / -write-baseline snapshot: the exact
// finding set (suppressed included, module-root-relative paths) and the
// analysis wall time that produced it.
type baselineFile struct {
	Findings []analysis.Finding `json:"findings"`
	Seconds  float64            `json:"seconds"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "arcklint: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	jsonOut := flag.Bool("json", false, "emit results (including suppressed findings) as JSON")
	checkers := flag.String("checker", "", "comma-separated subset of checkers to run (default: all)")
	suppressions := flag.Bool("suppressions", false, "audit //arcklint:allow directives instead of reporting findings")
	strict := flag.Bool("strict", false, "with -suppressions: exit 1 if any directive is stale")
	baselinePath := flag.String("baseline", "", "compare findings and runtime against this snapshot file")
	writeBaseline := flag.String("write-baseline", "", "write the findings/runtime snapshot to this file and exit")
	flag.Parse()

	analyzers, err := analysis.Select(*checkers)
	if err != nil {
		fatalf("%v", err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, dirs, err := analysis.ExpandPatterns(cwd, patterns)
	if err != nil {
		fatalf("%v", err)
	}
	start := time.Now()
	prog, err := analysis.LoadDirs(root, dirs)
	if err != nil {
		fatalf("%v", err)
	}

	if *suppressions {
		auditSuppressions(prog, root, *jsonOut, *strict)
		return
	}

	findings := analysis.Run(prog, analyzers)
	elapsed := time.Since(start)
	relativize := func(fs []analysis.Finding) {
		for i := range fs {
			if rel, err := filepath.Rel(root, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				fs[i].Pos.Filename = filepath.ToSlash(rel)
			}
		}
	}
	relativize(findings)

	if *writeBaseline != "" {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		data, err := json.MarshalIndent(baselineFile{Findings: findings, Seconds: elapsed.Seconds()}, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*writeBaseline, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("arcklint: baseline written: %d finding(s) in %.2fs\n", len(findings), elapsed.Seconds())
		return
	}
	if *baselinePath != "" {
		if !checkBaseline(*baselinePath, findings, elapsed) {
			os.Exit(1)
		}
	}

	unsuppressed, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			unsuppressed++
		}
	}
	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		emitJSON(findings)
	} else {
		for _, f := range findings {
			if !f.Suppressed {
				fmt.Println(f)
			}
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "arcklint: %d finding(s), %d suppressed\n", unsuppressed, suppressed)
		if *baselinePath == "" {
			os.Exit(1)
		}
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}

// findingKey identifies a finding for baseline comparison. Position
// column is excluded: gofmt churn should not invalidate the snapshot,
// file/line/checker/message already pin the violation.
func findingKey(f analysis.Finding) string {
	return fmt.Sprintf("%s:%d:%s:%s:suppressed=%v", f.Pos.Filename, f.Pos.Line, f.Checker, f.Message, f.Suppressed)
}

// checkBaseline compares the run against the snapshot and reports any
// drift; it returns false if findings differ or the runtime budget
// (twice the snapshot's seconds, floored at 2s) is exceeded.
func checkBaseline(path string, findings []analysis.Finding, elapsed time.Duration) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("reading baseline: %v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("parsing baseline %s: %v", path, err)
	}
	want := make(map[string]bool, len(base.Findings))
	for _, f := range base.Findings {
		want[findingKey(f)] = true
	}
	got := make(map[string]bool, len(findings))
	for _, f := range findings {
		got[findingKey(f)] = true
	}
	ok := true
	for _, f := range findings {
		if !want[findingKey(f)] {
			ok = false
			fmt.Fprintf(os.Stderr, "arcklint: finding not in baseline: %s (suppressed=%v)\n", f, f.Suppressed)
		}
	}
	for _, f := range base.Findings {
		if !got[findingKey(f)] {
			ok = false
			fmt.Fprintf(os.Stderr, "arcklint: baseline finding no longer produced: %s (suppressed=%v)\n", f, f.Suppressed)
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "arcklint: finding drift against %s — fix the code or regenerate with -write-baseline\n", path)
	}
	budget := 2 * base.Seconds
	if budget < 2 {
		budget = 2
	}
	if base.Seconds > 0 && elapsed.Seconds() > budget {
		ok = false
		fmt.Fprintf(os.Stderr, "arcklint: runtime budget exceeded: %.2fs > %.2fs (2x baseline %.2fs)\n",
			elapsed.Seconds(), budget, base.Seconds)
	}
	return ok
}

// auditSuppressions implements -suppressions: list every allow
// directive, flag stale ones, and surface malformed directives.
func auditSuppressions(prog *analysis.Program, root string, jsonOut, strict bool) {
	entries, findings := analysis.AuditSuppressions(prog)
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return name
	}
	stale := 0
	for i := range entries {
		entries[i].Pos.Filename = rel(entries[i].Pos.Filename)
		if entries[i].Stale {
			stale++
		}
	}
	malformed := 0
	for _, f := range findings {
		if f.Checker == "arcklint" {
			malformed++
			fmt.Fprintf(os.Stderr, "arcklint: %s:%d: %s\n", rel(f.Pos.Filename), f.Pos.Line, f.Message)
		}
	}
	if jsonOut {
		if entries == nil {
			entries = []analysis.SuppressionEntry{}
		}
		emitJSON(entries)
	} else {
		for _, e := range entries {
			mark := ""
			if e.Stale {
				mark = " [STALE]"
			}
			fmt.Printf("%s:%d: %s: %s%s\n", e.Pos.Filename, e.Pos.Line, e.Checker, e.Reason, mark)
		}
		fmt.Printf("arcklint: %d suppression(s), %d stale\n", len(entries), stale)
	}
	if malformed > 0 || (strict && stale > 0) {
		os.Exit(1)
	}
}
