// Command arcklint runs the repository's persist-ordering,
// crash-consistency, and lock-free-plane static analyzer suite
// (internal/analysis) over a set of package patterns and reports
// findings as "file:line: checker: message" lines. It exits 1 when any
// finding remains (under -baseline: when the findings drift from the
// snapshot), 2 on usage or load errors.
//
// Usage:
//
//	arcklint [-json] [-checker list] [-baseline file] [-write-baseline file] [patterns ...]
//
// Patterns default to ./... and accept plain directories, dir/..., and
// ./... forms.
//
// -baseline compares the run against a checked-in snapshot
// (scripts/arcklint_baseline.json), the one place a finding is accepted:
// the finding set must match exactly, and the analysis must finish
// within twice the snapshot's recorded seconds (floored at 2s to absorb
// runner noise) — a coarse guard against both silent finding drift and
// superlinear slowdowns in the summary engine. A finding the snapshot
// records is expected: it is still printed, but it fails the run only
// when no baseline is given. -write-baseline regenerates the snapshot.
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
// finding set (module-root-relative paths) and the analysis wall time
// that produced it.
type baselineFile struct {
	Findings []analysis.Finding `json:"findings"`
	Seconds  float64            `json:"seconds"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "arcklint: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the findings as JSON")
	checkers := flag.String("checker", "", "comma-separated subset of checkers to run (default: all)")
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

	findings := analysis.Run(prog, analyzers)
	elapsed := time.Since(start)
	if findings == nil {
		findings = []analysis.Finding{} // JSON [] rather than null
	}
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	if *writeBaseline != "" {
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

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "arcklint: %d finding(s)\n", len(findings))
		if *baselinePath == "" {
			os.Exit(1)
		}
	}
}

// findingKey identifies a finding for baseline comparison. Position
// column is excluded: gofmt churn should not invalidate the snapshot,
// file/line/checker/message already pin the violation.
func findingKey(f analysis.Finding) string {
	return fmt.Sprintf("%s:%d:%s:%s", f.Pos.Filename, f.Pos.Line, f.Checker, f.Message)
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
			fmt.Fprintf(os.Stderr, "arcklint: finding not in baseline: %s\n", f)
		}
	}
	for _, f := range base.Findings {
		if !got[findingKey(f)] {
			ok = false
			fmt.Fprintf(os.Stderr, "arcklint: baseline finding no longer produced: %s\n", f)
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
