package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// epochdrain tracks every pmem.Batch obtained in a function (via
// Device.NewBatch) and requires that each one reaches a
// drain point — Barrier, Drain, or AssertEmpty — or is handed off (used
// as a call argument, stored into a struct, returned) on every path out
// of the function, early error returns included. A batch dropped with
// lines still queued means those write-backs never happen: the stores
// persist only by cache-eviction accident, silently reopening the
// §4.2-adjacent window the batch existed to close.
//
// Tracking is per local variable and intraprocedural. Any use of the
// variable outside method-receiver position counts as a handoff: once the
// batch escapes, responsibility for draining it moves with it.
var epochDrainAnalyzer = &Analyzer{
	Name: "epochdrain",
	Doc: "a pmem.Batch obtained in a function must reach Barrier/Drain or " +
		"be handed off on every return path",
	Run: runEpochDrain,
}

const (
	edPending = iota
	edDone
)

type edState struct {
	// batches maps each tracked local to its status and creation site.
	batches map[*types.Var]edEntry
}

type edEntry struct {
	status int
	pos    token.Pos
}

func (s *edState) Copy() flowState {
	c := &edState{batches: make(map[*types.Var]edEntry, len(s.batches))}
	for v, e := range s.batches {
		c.batches[v] = e
	}
	return c
}

func (s *edState) Merge(o flowState) {
	for v, e := range o.(*edState).batches {
		if cur, ok := s.batches[v]; !ok || (e.status == edPending && cur.status != edPending) {
			s.batches[v] = e
		}
	}
}

type edClient struct {
	pkg      *Package
	prog     *Program
	findings *[]Finding
	// held marks batch identifiers passed to a callee whose summary
	// proves the corresponding parameter is neither drained nor handed
	// off: that use is not an escape, the obligation stays here.
	held map[*ast.Ident]bool
}

// newBatchCall reports whether the call mints a fresh *pmem.Batch.
func newBatchCall(pkg *Package, call *ast.CallExpr) bool {
	return isMethod(calleeFunc(pkg, call), "internal/pmem", "Device", "NewBatch")
}

func (c *edClient) onAssign(w *flowWalker, st flowState, as *ast.AssignStmt) {
	s := st.(*edState)
	if len(as.Lhs) != len(as.Rhs) {
		// Multi-value form (a, b := f()): nothing to track, scan as usual.
		for _, rhs := range as.Rhs {
			w.scan(st, rhs)
		}
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if ok && newBatchCall(c.pkg, call) {
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				obj := c.pkg.Info.Defs[id]
				if obj == nil {
					obj = c.pkg.Info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok {
					// (Re)binding the variable starts tracking a fresh,
					// empty batch; any prior binding held no queued lines
					// worth reporting at its creation site twice.
					s.batches[v] = edEntry{status: edPending, pos: call.Pos()}
					continue
				}
			}
		}
		// Not a tracked definition: scan the RHS normally (calls fire,
		// identifier uses count as handoffs).
		w.scan(st, rhs)
	}
	for _, lhs := range as.Lhs {
		// A plain-ident LHS is a store into the variable, not a use of the
		// batch; composite LHS expressions (fields, indexes) are scanned so
		// any tracked ident inside them registers as an escape.
		if _, ok := lhs.(*ast.Ident); !ok {
			w.scan(st, lhs)
		}
	}
}

func (c *edClient) onCall(w *flowWalker, st flowState, call *ast.CallExpr) {
	s := st.(*edState)
	// Interprocedural: passing a tracked batch to a callee whose summary
	// proves the parameter reaches no drain point and no handoff keeps
	// the obligation in this function — the use below must not count as
	// an escape. (An opaque or draining callee keeps the v1 behavior:
	// the use is a handoff.)
	if sum := c.prog.summaryFor(c.pkg, call); sum != nil {
		for i, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := c.pkg.Info.Uses[id].(*types.Var)
			if !ok {
				continue
			}
			if _, tracked := s.batches[v]; !tracked {
				continue
			}
			if drained, known := sum.BatchParamDrained[i]; known && !drained {
				c.held[id] = true
			}
		}
	}
	fn := calleeFunc(c.pkg, call)
	if fn == nil {
		return
	}
	p, t := recvTypeOf(fn)
	if t != "Batch" || !pkgPathHasSuffix(p, "internal/pmem") {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := c.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if e, tracked := s.batches[v]; tracked {
		switch fn.Name() {
		case "Barrier", "Drain", "AssertEmpty":
			e.status = edDone
			s.batches[v] = e
		}
	}
}

func (c *edClient) onIdent(st flowState, id *ast.Ident) {
	s := st.(*edState)
	if c.held[id] {
		return
	}
	if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
		if e, tracked := s.batches[v]; tracked {
			// The batch escapes (argument, return value, struct field,
			// closure capture): the recipient owns draining it now.
			e.status = edDone
			s.batches[v] = e
		}
	}
}

func (c *edClient) onReturn(st flowState, _ token.Pos) {
	for _, e := range st.(*edState).batches {
		if e.status == edPending {
			*c.findings = append(*c.findings, Finding{
				Pos: c.prog.Fset.Position(e.pos),
				Message: "pmem.Batch obtained here can leave the function without " +
					"Barrier/Drain or a handoff: queued lines would never be written back",
			})
		}
	}
}

func runEpochDrain(prog *Program) []Finding {
	var findings []Finding
	eachFunc(prog, func(pkg *Package, decl *ast.FuncDecl) {
		if pkgPathHasSuffix(pkg.Path, "internal/pmem") {
			return
		}
		c := &edClient{pkg: pkg, prog: prog, findings: &findings, held: make(map[*ast.Ident]bool)}
		walkFunc(pkg, decl.Body, c, &edState{batches: make(map[*types.Var]edEntry)})
	})
	return findings
}
