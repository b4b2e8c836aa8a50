// Package analysis implements arcklint, a suite of static analyzers that
// enforce the repository's persist-ordering, locking, and lock-free-plane
// discipline at compile time:
//
//   - persistorder: a commit-marker persist must be dominated by a
//     Batch.Barrier since the last dentry-body store on every path.
//   - lockorder: hlock acquisition in libfs/kernel follows the declared
//     partial order, and the whole-program acquisition graph is acyclic.
//   - rcusection: RCU read-side critical sections take no blocking lock,
//     issue no kernel crossing, and unpin on every return path.
//   - retirecheck: reader-reachable pages and inode numbers go through
//     rcu retire (grace period), never straight back to an allocator
//     pool — the PR 7 Truncate-shrink use-after-free class.
//   - counterreg: telemetry counters are registered once and every
//     namespaced counter-name literal refers to a registered counter.
//
// A checker stays only while it owns a row of docs/TESTING.md's matrix: a
// bug class it alone is recorded catching, where no other detector column
// (both arckcrash drivers, -race, TestCostBounds) holds a ✓ and no
// targeted test catches it (TestEveryCheckerOwnsACell). The row cites the
// mutant in testdata/mutants that scripts/mutants.sh re-runs.
//
// Since v2 the suite is interprocedural: before any checker runs, the
// engine in summary.go computes one effect Summary per function — locks
// it may acquire, whether it can leave a body store unbarriered, its
// RCU pin balance, whether it can block a grace period or recycle
// reader-reachable resources — bottom-up over the call graph's strongly
// connected components to a conservative fixpoint. Checkers stay
// flow-sensitive walks of a single function body but see every call
// through the callee's summary, so a violation assembled across two,
// three, or N frames (a pinned reader calling a helper that calls a
// helper that takes a lock) is reported at the outermost call site with
// the via-chain named.
//
// The suite is built on the standard library only (go/parser, go/ast,
// go/types), so it runs offline with no module dependencies. Each checker
// is an Analyzer{Name, Doc, Run} value, deliberately shaped so it could
// later be rehosted on golang.org/x/tools/go/analysis without rewriting
// the checker bodies.
//
// A finding is fixed, or accepted in one place: the snapshot
// scripts/arcklint_baseline.json, which arcklint -baseline diffs every run
// against.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a checker.
type Finding struct {
	Pos     token.Position `json:"pos"`
	Checker string         `json:"checker"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Checker, f.Message)
}

// Analyzer is one named checker. Run inspects the program and returns raw
// findings; deduplication and ordering are applied centrally by Run (the
// package-level function).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Finding
}

// Analyzers returns the full checker suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		persistOrderAnalyzer,
		lockOrderAnalyzer,
		rcuSectionAnalyzer,
		retireCheckAnalyzer,
		counterRegAnalyzer,
	}
}

// Select returns the analyzers whose names appear in the comma-separated
// list, or all of them for an empty list.
func Select(list string) ([]*Analyzer, error) {
	all := Analyzers()
	if list == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown checker %q (have %s)", name, checkerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func checkerNames() string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Run executes the given analyzers over the program and returns the
// deduplicated findings in file/line order.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	prog.ensureSummaries()
	var findings []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(prog) {
			f.Checker = a.Name
			findings = append(findings, f)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
	// Deduplicate: a flow checker can reach the same violation along
	// several paths of the same function.
	out := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// eachFunc invokes fn for every function or method body in the program.
func eachFunc(prog *Program, fn func(pkg *Package, decl *ast.FuncDecl)) {
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					fn(pkg, fd)
				}
			}
		}
	}
}
