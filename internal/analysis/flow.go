package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the small abstract interpreter the flow-sensitive
// checkers (persistorder, lockorder, rcusection, retirecheck) and the
// summary engine share. It walks a function body statement by statement,
// threading a checker-specific abstract state through it:
//
//   - if/else, switch, and select fork the state and merge (least upper
//     bound) at the join; an if on exactly bugs.Has(…) or !bugs.Has(…)
//     walks only the branch ArckFS+ takes (bugFlagCond);
//   - loop bodies are interpreted twice so loop-carried effects (a store
//     queued in iteration N observed in iteration N+1) are seen, then
//     merged with the zero-iteration path;
//   - return statements end a path: deferred calls recorded so far are
//     replayed (path-insensitively) and the checker's return hook runs;
//   - function literals are not interpreted at their creation point (they
//     run later, if at all); a checker can interpret a callback inline
//     via walker.block when it recognizes the enclosing call (lockorder
//     does this for htable's WithBucket);
//   - go statements and break/continue/goto are treated conservatively:
//     the spawned or jumping path simply stops contributing state.
//
// Each walk covers a single function body; calls are not inlined.
// Interprocedural facts arrive through the effect summaries of
// summary.go instead: a checker's onCall consults the callee's
// precomputed Summary (may it store body bytes? acquire a lock class?
// block a grace period?) rather than walking into it, which keeps every walk
// linear in the function's size while still catching violations
// assembled across call boundaries.

// flowState is a checker's abstract state. Merge folds another state into
// the receiver as a least upper bound; Copy returns an independent clone.
type flowState interface {
	Copy() flowState
	Merge(flowState)
}

// flowClient receives interpretation events.
type flowClient interface {
	// onCall fires for every call expression, in source order. The client
	// may use w.block to interpret an inline callback under the call's
	// scope.
	onCall(w *flowWalker, st flowState, call *ast.CallExpr)
	// onReturn fires once per path that leaves the function, after
	// deferred calls have been replayed into st.
	onReturn(st flowState, pos token.Pos)
}

// assignClient is an optional extension: when implemented, assignment
// statements are delivered whole instead of being scanned generically.
type assignClient interface {
	onAssign(w *flowWalker, st flowState, as *ast.AssignStmt)
}

type flowWalker struct {
	pkg      *Package
	client   flowClient
	deferred []*ast.CallExpr
}

// walkFunc interprets body with the given initial state.
func walkFunc(pkg *Package, body *ast.BlockStmt, client flowClient, init flowState) {
	w := &flowWalker{pkg: pkg, client: client}
	if out := w.block(body, init); out != nil {
		w.leave(out, body.End())
	}
}

// leave replays deferred calls and signals the end of a path.
func (w *flowWalker) leave(st flowState, pos token.Pos) {
	st = st.Copy()
	for i := len(w.deferred) - 1; i >= 0; i-- {
		w.client.onCall(w, st, w.deferred[i])
	}
	w.client.onReturn(st, pos)
}

// block interprets stmts in order; a nil result means every path through
// the block left the function.
func (w *flowWalker) block(b *ast.BlockStmt, st flowState) flowState {
	for _, s := range b.List {
		if st = w.stmt(s, st); st == nil {
			return nil
		}
	}
	return st
}

func mergeStates(a, b flowState) flowState {
	if a == nil {
		return b
	}
	if b != nil {
		a.Merge(b)
	}
	return a
}

func (w *flowWalker) stmt(s ast.Stmt, st flowState) flowState {
	switch s := s.(type) {
	case nil:
		return st
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.ExprStmt:
		w.scan(st, s.X)
	case *ast.AssignStmt:
		if ac, ok := w.client.(assignClient); ok {
			ac.onAssign(w, st, s)
		} else {
			w.scan(st, s)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.scan(st, s)
	case *ast.ReturnStmt:
		w.scan(st, s)
		w.leave(st, s.Pos())
		return nil
	case *ast.DeferStmt:
		w.deferred = append(w.deferred, s.Call)
	case *ast.GoStmt:
		// Concurrent execution: contributes nothing to this path.
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		return nil
	case *ast.IfStmt:
		if st = w.stmt(s.Init, st); st == nil {
			return nil
		}
		w.scan(st, s.Cond)
		if takesThen, ok := w.bugFlagCond(s.Cond); ok {
			if takesThen {
				return w.block(s.Body, st)
			}
			return w.stmt(s.Else, st)
		}
		then := w.block(s.Body, st.Copy())
		els := st.Copy()
		if s.Else != nil {
			els = w.stmt(s.Else, els)
		}
		return mergeStates(then, els)
	case *ast.ForStmt:
		if st = w.stmt(s.Init, st); st == nil {
			return nil
		}
		loop := func(in flowState) flowState {
			if s.Cond != nil {
				w.scan(in, s.Cond)
			}
			out := w.block(s.Body, in)
			if out != nil {
				out = w.stmt(s.Post, out)
			}
			return out
		}
		once := loop(st.Copy())
		st = mergeStates(st, once)
		if st == nil {
			return nil
		}
		return mergeStates(st.Copy(), loop(st.Copy()))
	case *ast.RangeStmt:
		w.scan(st, s.X)
		once := w.block(s.Body, st.Copy())
		st = mergeStates(st, once)
		if st == nil {
			return nil
		}
		return mergeStates(st.Copy(), w.block(s.Body, st.Copy()))
	case *ast.SwitchStmt:
		if st = w.stmt(s.Init, st); st == nil {
			return nil
		}
		if s.Tag != nil {
			w.scan(st, s.Tag)
		}
		return w.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if st = w.stmt(s.Init, st); st == nil {
			return nil
		}
		w.scan(st, s.Assign)
		return w.clauses(s.Body, st)
	case *ast.SelectStmt:
		var out flowState
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := st.Copy()
			if branch = w.stmt(cc.Comm, branch); branch != nil {
				for _, cs := range cc.Body {
					if branch = w.stmt(cs, branch); branch == nil {
						break
					}
				}
			}
			out = mergeStates(out, branch)
		}
		return out
	}
	return st
}

// bugFlagCond reports whether cond is exactly bugs.Has(…) or
// !bugs.Has(…) on a libfs.Bugs value and, if so, whether ArckFS+
// (BugsNone, where Has is false) takes the then branch. Only that branch
// is walked: a bug flag's branch reproduces a paper bug on purpose. A
// compound condition or a flag stored in a variable is walked both ways.
func (w *flowWalker) bugFlagCond(cond ast.Expr) (takesThen, ok bool) {
	cond = ast.Unparen(cond)
	if not, isNot := cond.(*ast.UnaryExpr); isNot && not.Op == token.NOT {
		cond, takesThen = ast.Unparen(not.X), true
	}
	call, isCall := cond.(*ast.CallExpr)
	if !isCall || !isMethod(calleeFunc(w.pkg, call), "internal/libfs", "Bugs", "Has") {
		return false, false
	}
	return takesThen, true
}

// clauses merges the case bodies of a switch, plus the fall-past path
// when no default clause exists.
func (w *flowWalker) clauses(body *ast.BlockStmt, st flowState) flowState {
	var out flowState
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.scan(st, e)
		}
		branch := st.Copy()
		for _, cs := range cc.Body {
			if branch = w.stmt(cs, branch); branch == nil {
				break
			}
		}
		out = mergeStates(out, branch)
	}
	if !hasDefault {
		out = mergeStates(out, st)
	}
	return out
}

// scan walks an expression (or expression-bearing statement) delivering
// call events in pre-order. Function-literal bodies are skipped — they
// execute later, not here.
func (w *flowWalker) scan(st flowState, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.client.onCall(w, st, node)
		}
		return true
	})
}

// --- Symbol matching -------------------------------------------------------

// calleeFunc resolves a call expression to the *types.Func it invokes.
// Direct identifier and selector calls resolve through the type
// checker's Uses map; a call through a local variable resolves when the
// variable is bound exactly once to a method value or a named function
// (f := b.Barrier; ...; f()). It returns nil for calls through
// multiply-assigned variables, type conversions, builtins, and function
// literals (resolveCallee handles the literal case).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
		if v, ok := obj.(*types.Var); ok {
			if bound, ok := pkg.bindings[v]; ok {
				switch bound := bound.(type) {
				case *ast.SelectorExpr:
					obj = pkg.Info.Uses[bound.Sel]
				case *ast.Ident:
					obj = pkg.Info.Uses[bound]
				}
			}
		}
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// resolveCallee resolves a call to its target more aggressively than
// calleeFunc: a call through a single-assignment local bound to a
// function literal yields the literal; a direct literal call
// (func(){...}()) likewise; and a call through an interface method with
// exactly one module-local implementation resolves to that concrete
// method. Exactly one of the results is non-nil when resolution
// succeeds.
func resolveCallee(prog *Program, pkg *Package, call *ast.CallExpr) (*types.Func, *ast.FuncLit) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return nil, fun
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[fun].(*types.Var); ok {
			if lit, ok := pkg.bindings[v].(*ast.FuncLit); ok {
				return nil, lit
			}
		}
	}
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil, nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if types.IsInterface(recv) {
			if impl := prog.index().impl[fn]; impl != nil {
				return impl, nil
			}
		}
	}
	return fn, nil
}

// pkgPathHasSuffix reports whether path is suffix or ends in "/"+suffix,
// so symbol tables are independent of the module name.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// recvTypeOf returns the package path and type name of a method's
// receiver ("" for plain functions).
func recvTypeOf(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return pkgPath, obj.Name()
}

// isMethod reports whether fn is method name on a type named typeName in
// a package whose import path ends in pkgSuffix.
func isMethod(fn *types.Func, pkgSuffix, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	p, t := recvTypeOf(fn)
	return t == typeName && pkgPathHasSuffix(p, pkgSuffix)
}

// isPkgFunc reports whether fn is the plain function name in a package
// whose import path ends in pkgSuffix.
func isPkgFunc(fn *types.Func, pkgSuffix, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return pkgPathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}
