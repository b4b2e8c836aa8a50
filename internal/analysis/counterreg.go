package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// counterreg keeps the telemetry registry honest. Three rules:
//
//  1. Registrations (telemetry Set.Counter / Set.Gauge) must pass a
//     string literal, so the registry contents are statically known.
//  2. Each name is registered at exactly one call site; a second site is
//     flagged against the first (sites are ordered by position, so the
//     canonical one is stable).
//  3. Any other string literal that looks like a namespaced counter name
//     (pmem.*, kernel.*, verifier.*, libfs.*, pmalloc.*) must
//     match a registered name — the drift that silently breaks dashboards
//     and bench tooling when a counter is renamed but a lookup key is
//     not. Whitebox killpoint sites (pmem.Killpoint /
//     ArmKillpoint names like "libfs.create.marker") share the dotted
//     vocabulary but are not counters: any value that appears as a
//     Killpoint argument somewhere in the program is exempt from the
//     drift rule everywhere (site lists, arming calls).
//
// The registry is program-wide: run the checker over the whole module
// (./...) or registrations in unloaded packages will look missing.
var counterRegAnalyzer = &Analyzer{
	Name: "counterreg",
	Doc: "telemetry counters are registered once, by string literal, and " +
		"every namespaced name literal matches a registered counter",
	Run: runCounterReg,
}

// counterNameRe matches the repository's namespaced counter names. Names
// without a namespace dot (e.g. "syscalls") are not checked for drift but
// still participate in the once-only rule. Dotted suffixes are allowed
// ("pmalloc.steals.remote", "kernel.shard.acquisitions").
var counterNameRe = regexp.MustCompile(`^(pmem|kernel|verifier|libfs|pmalloc)\.[a-z0-9_.]+$`)

type regSite struct {
	name string
	pos  token.Position
}

func runCounterReg(prog *Program) []Finding {
	var findings []Finding
	var sites []regSite
	type literal struct {
		value string
		pos   token.Position
	}
	var literals []literal
	regLits := make(map[*ast.BasicLit]bool)
	killSites := make(map[string]bool)

	for _, pkg := range prog.Pkgs {
		if pkgPathHasSuffix(pkg.Path, "internal/telemetry") {
			// The registry implementation itself is exempt.
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg, call)
				if fn == nil || len(call.Args) == 0 {
					return true
				}
				if isPkgFunc(fn, "internal/pmem", "Killpoint") ||
					isPkgFunc(fn, "internal/pmem", "ArmKillpoint") {
					if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if site, err := strconv.Unquote(lit.Value); err == nil {
							killSites[site] = true
						}
					}
					return true
				}
				if !isMethod(fn, "internal/telemetry", "Set", "Counter") &&
					!isMethod(fn, "internal/telemetry", "Set", "Gauge") {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					findings = append(findings, Finding{
						Pos: prog.Fset.Position(call.Args[0].Pos()),
						Message: "telemetry counter registered with a non-constant name; " +
							"use a string literal so the registry is statically checkable",
					})
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				regLits[lit] = true
				sites = append(sites, regSite{name: name, pos: prog.Fset.Position(lit.Pos())})
				return true
			})
		}
	}

	// Collect every other string literal for the drift rule.
	for _, pkg := range prog.Pkgs {
		if pkgPathHasSuffix(pkg.Path, "internal/telemetry") {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || regLits[lit] {
					return true
				}
				if v, err := strconv.Unquote(lit.Value); err == nil {
					literals = append(literals, literal{value: v, pos: prog.Fset.Position(lit.Pos())})
				}
				return true
			})
		}
	}

	// Rule 2: once-only registration.
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i].pos, sites[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	registered := make(map[string]token.Position)
	for _, s := range sites {
		if first, dup := registered[s.name]; dup {
			findings = append(findings, Finding{
				Pos: s.pos,
				Message: fmt.Sprintf("counter %q is already registered at %s:%d",
					s.name, filepath.Base(first.Filename), first.Line),
			})
			continue
		}
		registered[s.name] = s.pos
	}

	// Rule 3: namespaced literals must refer to registered counters.
	for _, l := range literals {
		if !counterNameRe.MatchString(l.value) || killSites[l.value] {
			continue
		}
		if _, ok := registered[l.value]; !ok {
			findings = append(findings, Finding{
				Pos: l.pos,
				Message: fmt.Sprintf("string literal %q looks like a counter name but no "+
					"counter with that name is registered", l.value),
			})
		}
	}
	return findings
}
