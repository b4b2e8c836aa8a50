package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// retirecheck enforces the lock-free plane's reclamation protocol, the
// discipline whose absence produced the PR 7 use-after-free class: a
// page or inode number that a concurrent RCU reader may still reach must
// never be returned straight to an allocator pool. The only legal routes
// back to a pool are
//
//  1. FS.retire, which parks the resource behind a grace period — in an
//     object handed to rcu.Domain.Retire — before recycling it;
//  2. resources that were freshly allocated in the same function and
//     never published (a failure path returning an allocPage/allocIno
//     result it never stored anywhere reader-visible).
//
// A direct FS.recyclePages / FS.recycleIno call outside those routes is
// exactly the pre-fix Truncate shrink bug: a reader that loaded the
// block pointer before the unpublish dereferences the page after the
// pool hands it to the next writer. The check is interprocedural:
// a call into a helper whose effect summary says it may recycle
// reader-reachable resources is flagged at the call site too, so the
// violation cannot hide one or more calls down (see summary.go).
//
// Function literals are checked like named functions, except thunks
// passed to rcu.Domain.Defer, and so is every method except the Reclaim
// method of a type handed to rcu.Domain.Retire: those run after the grace
// period — they ARE the retire path — so recycling inside them is the
// protocol working as intended. Only the domain may run them: a Reclaim
// method called directly is an ordinary call into a function that
// recycles, and is flagged as one.
var retireCheckAnalyzer = &Analyzer{
	Name: "retirecheck",
	Doc: "reader-reachable pages/inodes must go back to allocator pools " +
		"through a grace period (PR 7 use-after-free class)",
	Run: runRetireCheck,
}

type rcState struct {
	// fresh marks locals holding resources allocated in this function and
	// not yet published.
	fresh map[*types.Var]bool
}

func (s *rcState) Copy() flowState {
	c := &rcState{fresh: make(map[*types.Var]bool, len(s.fresh))}
	for k, v := range s.fresh {
		c.fresh[k] = v
	}
	return c
}

func (s *rcState) Merge(o flowState) {
	os := o.(*rcState)
	// Freshness is a claim of safety, so the join keeps it only when both
	// incoming paths agree.
	for k := range s.fresh {
		if !os.fresh[k] {
			delete(s.fresh, k)
		}
	}
}

type rcClient struct {
	pkg      *Package
	prog     *Program
	findings *[]Finding
}

func (c *rcClient) onAssign(w *flowWalker, st flowState, as *ast.AssignStmt) {
	s := st.(*rcState)
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if fn, _ := resolveCallee(c.prog, c.pkg, call); freshSource(fn) {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					obj := c.pkg.Info.Defs[id]
					if obj == nil {
						obj = c.pkg.Info.Uses[id]
					}
					if v, ok := obj.(*types.Var); ok {
						w.scan(st, as.Rhs[0])
						s.fresh[v] = true
						return
					}
				}
			}
		}
	}
	// Any other rebinding of a tracked variable loses its freshness: the
	// new value may be a published, reader-reachable resource.
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
				delete(s.fresh, v)
			}
		}
	}
	w.scan(st, as)
}

func (c *rcClient) onCall(w *flowWalker, st flowState, call *ast.CallExpr) {
	s := st.(*rcState)
	fn, _ := resolveCallee(c.prog, c.pkg, call)
	if fn != nil {
		if name, res, ok := recycleTarget(fn, call); ok {
			if !allFresh(c.pkg, res, s.fresh) {
				*c.findings = append(*c.findings, Finding{
					Pos: c.prog.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("%s returns possibly reader-reachable resources "+
						"directly to the allocator pool: an RCU reader may still hold them; "+
						"retire them through the RCU domain", name),
				})
			}
			return
		}
	}
	if sum := c.prog.summaryFor(c.pkg, call); sum != nil && sum.MayRecycle {
		*c.findings = append(*c.findings, Finding{
			Pos: c.prog.Fset.Position(call.Pos()),
			Message: fmt.Sprintf("call to %s can recycle reader-reachable resources "+
				"outside the retire protocol (%s)",
				calleeName(c.prog, c.pkg, call), sum.RecycleVia),
		})
	}
}

func (c *rcClient) onReturn(flowState, token.Pos) {}

// deferThunks collects every function literal passed to
// rcu.Domain.Defer in the file: the blessed retire thunks.
func deferThunks(pkg *Package, file *ast.File) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pkg, call); isMethod(fn, "internal/rcu", "Domain", "Defer") {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					out[lit] = true
				}
			}
		}
		return true
	})
	return out
}

// reclaimMethods collects the Reclaim method of every type some call in
// the program hands to rcu.Domain.Retire: the blessed retire methods.
func reclaimMethods(prog *Program) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 ||
					!isMethod(calleeFunc(pkg, call), "internal/rcu", "Domain", "Retire") {
					return true
				}
				if t := pkg.Info.TypeOf(call.Args[0]); t != nil && !types.IsInterface(t) {
					obj, _, _ := types.LookupFieldOrMethod(t, true, pkg.Types, "Reclaim")
					if m, ok := obj.(*types.Func); ok {
						out[m] = true
					}
				}
				return true
			})
		}
	}
	return out
}

func runRetireCheck(prog *Program) []Finding {
	var findings []Finding
	reclaim := reclaimMethods(prog)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			blessed := deferThunks(pkg, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if m, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && reclaim[m] {
					continue
				}
				c := &rcClient{pkg: pkg, prog: prog, findings: &findings}
				walkFunc(pkg, fd.Body, c, &rcState{fresh: make(map[*types.Var]bool)})
				// Closures run under scheduling the enclosing walk cannot
				// see; check each body standalone with a pessimistic
				// (nothing fresh) entry state — except the Defer
				// thunks, which execute after the grace period.
				ast.Inspect(fd, func(n ast.Node) bool {
					lit, ok := n.(*ast.FuncLit)
					if !ok {
						return true
					}
					if blessed[lit] {
						return false
					}
					c := &rcClient{pkg: pkg, prog: prog, findings: &findings}
					walkFunc(pkg, lit.Body, c, &rcState{fresh: make(map[*types.Var]bool)})
					return true
				})
			}
		}
	}
	return findings
}
