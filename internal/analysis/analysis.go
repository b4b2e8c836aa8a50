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
// Deliberate exceptions are suppressed in source with
//
//	//arcklint:allow <checker> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: an allow directive without one is itself reported. A
// suppression placed at a primitive site is honored by the summary
// engine too: the excused effect does not propagate, so one allow at the
// choke point covers the whole call tree above it. AuditSuppressions
// (arcklint -suppressions) lists every directive and marks the ones that
// no longer suppress anything, so stale allows cannot linger and mask a
// future, real finding.
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
	// Suppressed marks a finding matched by an //arcklint:allow
	// directive; Reason carries the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Checker, f.Message)
}

// Analyzer is one named checker. Run inspects the program and returns raw
// findings; suppression handling, deduplication, and ordering are applied
// centrally by Run (the package-level function).
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

// allowDirective is one parsed //arcklint:allow comment.
type allowDirective struct {
	checker string
	reason  string
	pos     token.Position
}

const allowPrefix = "//arcklint:allow"

// collectAllows parses every //arcklint:allow directive in the program.
// The returned map is keyed by filename, then by the source line the
// directive covers (its own line and the one below it, so a directive
// can sit on the flagged line or directly above it). Malformed
// directives — a missing checker, an unknown checker name, or a missing
// reason — are returned as findings so suppressions cannot silently rot.
func collectAllows(prog *Program) (map[string]map[int][]allowDirective, []Finding) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	allows := make(map[string]map[int][]allowDirective)
	var bad []Finding
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						bad = append(bad, Finding{Pos: pos, Checker: "arcklint",
							Message: "malformed allow directive: missing checker name and reason"})
						continue
					case !known[fields[0]]:
						bad = append(bad, Finding{Pos: pos, Checker: "arcklint",
							Message: fmt.Sprintf("allow directive names unknown checker %q (have %s)", fields[0], checkerNames())})
						continue
					case len(fields) < 2:
						bad = append(bad, Finding{Pos: pos, Checker: "arcklint",
							Message: fmt.Sprintf("allow directive for %q requires a reason", fields[0])})
						continue
					}
					d := allowDirective{
						checker: fields[0],
						reason:  strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
						pos:     pos,
					}
					byLine := allows[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]allowDirective)
						allows[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], d)
					byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
				}
			}
		}
	}
	return allows, bad
}

// ensureAllows parses and caches the program's allow directives
// (idempotent, like ensureSummaries: the directive set is a property of
// the loaded source).
func (prog *Program) ensureAllows() (map[string]map[int][]allowDirective, []Finding) {
	if prog.allows == nil {
		prog.allows, prog.allowsBad = collectAllows(prog)
		prog.allowsUsed = make(map[token.Position]bool)
	}
	return prog.allows, prog.allowsBad
}

// suppressedAt reports whether pos is covered by an allow directive for
// checker, recording the directive as live for the -suppressions audit.
// This is the callback the summary engine consults when deciding whether
// a primitive's effect propagates to callers.
func (prog *Program) suppressedAt(pos token.Position, checker string) bool {
	for _, d := range prog.allows[pos.Filename][pos.Line] {
		if d.checker == checker {
			prog.allowsUsed[d.pos] = true
			return true
		}
	}
	return false
}

// Run executes the given analyzers over the program and returns the
// deduplicated, suppression-annotated findings in file/line order.
// Directive problems (malformed allows) are always included, whichever
// checkers were selected.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	allows, bad := prog.ensureAllows()
	prog.ensureSummaries(prog.suppressedAt)
	findings := append([]Finding(nil), bad...)
	for _, a := range analyzers {
		for _, f := range a.Run(prog) {
			f.Checker = a.Name
			for _, d := range allows[f.Pos.Filename][f.Pos.Line] {
				if d.checker == a.Name {
					f.Suppressed = true
					f.Reason = d.reason
					prog.allowsUsed[d.pos] = true
					break
				}
			}
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

// SuppressionEntry is one //arcklint:allow directive as reported by the
// -suppressions audit.
type SuppressionEntry struct {
	Pos     token.Position `json:"pos"`
	Checker string         `json:"checker"`
	Reason  string         `json:"reason"`
	// Stale marks a directive that suppressed no finding and gated no
	// summary propagation in a full run: the code it excused has changed
	// (or the checker has improved past the false positive), and the
	// directive should be deleted before it hides a real finding at the
	// same line later.
	Stale bool `json:"stale"`
}

// AuditSuppressions runs the full suite and reports every well-formed
// allow directive in file/line order, marking stale ones. The returned
// findings are the full run's output (malformed directives included), so
// callers can report both without running the suite twice.
func AuditSuppressions(prog *Program) ([]SuppressionEntry, []Finding) {
	findings := Run(prog, Analyzers())
	allows, _ := prog.ensureAllows()
	seen := make(map[token.Position]bool)
	var entries []SuppressionEntry
	for _, byLine := range allows {
		for _, ds := range byLine {
			for _, d := range ds {
				if seen[d.pos] {
					// Each directive is registered under two lines.
					continue
				}
				seen[d.pos] = true
				entries = append(entries, SuppressionEntry{
					Pos:     d.pos,
					Checker: d.checker,
					Reason:  d.reason,
					Stale:   !prog.allowsUsed[d.pos],
				})
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return entries, findings
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
