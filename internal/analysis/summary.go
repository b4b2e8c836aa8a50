package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file implements the interprocedural half of arcklint: a
// whole-program call graph over the loaded packages with a per-function
// effect Summary, computed bottom-up over strongly connected components
// with a conservative fixpoint for recursion. Checkers consult callee
// summaries through Program.summaryFor instead of treating calls as
// opaque, which is what lets retirecheck re-find the PR 7
// use-after-free classes statically and lets the other checkers see
// violations hidden one or more calls deep (through method values,
// single-implementation interfaces, and function literals bound to
// single-assignment locals).
//
// The design follows the compositional-summary school (RacerD-style
// lock/ownership summaries): each function is abstracted once into a
// small record of effects, and every checker's flow walk applies callee
// records in O(1) per call. Summaries are computed once per Run and
// shared by all checkers, so the interprocedural engine costs one extra
// walk over every function body plus an SCC pass, not a per-checker
// whole-program traversal.

// Summary is the effect record of one function (or function literal).
// Fields are conservative in the direction each consumer needs: "May"
// facts over-approximate (false negatives impossible for the caller),
// "Always" facts under-approximate (they only claim what holds on every
// path).
type Summary struct {
	// MayStoreBody: some path through the call can leave a dentry-body /
	// inode store in the current persist ordering epoch at return
	// (persistorder: the caller's epoch is dirty after this call).
	MayStoreBody bool
	// AlwaysClean: every path issues a Batch.Barrier after its last body
	// store, so the call clears the caller's dirty epoch.
	AlwaysClean bool
	// MayAcquire is the set of classified hlock classes the call can
	// acquire, transitively (lockorder: held-set x MayAcquire gives the
	// interprocedural acquisition edges).
	MayAcquire map[string]lockClass
	// PinDelta is the net RCU pin-depth change of the call when it is the
	// same on every path, zero otherwise (rcusection flags unbalanced
	// functions directly).
	PinDelta int
	// MayBlockPinned: the call can block an RCU grace period — it may
	// acquire a blocking hlock, drain persistence, wait on a grace
	// period, or cross into the kernel. BlockVia names the first cause.
	MayBlockPinned bool
	BlockVia       string
	// MayRecycle: the call can return a reader-reachable page or inode
	// directly to an allocator pool — a recyclePages/recycleIno call that
	// is not provably fed only freshly allocated resources,
	// transitively. Sites suppressed with
	// //arcklint:allow retirecheck do not propagate. RecycleVia names the
	// first cause.
	MayRecycle bool
	RecycleVia string
}

func newBottomSummary() *Summary {
	// Optimistic bottom for the fixpoint: "may" facts start false,
	// "always" facts start true; iteration only moves facts toward the
	// conservative side, so the least fixpoint is reached monotonically.
	return &Summary{
		AlwaysClean: true,
		MayAcquire:  make(map[string]lockClass),
	}
}

func (s *Summary) equal(o *Summary) bool {
	if s.MayStoreBody != o.MayStoreBody || s.AlwaysClean != o.AlwaysClean ||
		s.PinDelta != o.PinDelta ||
		s.MayBlockPinned != o.MayBlockPinned ||
		s.MayRecycle != o.MayRecycle ||
		len(s.MayAcquire) != len(o.MayAcquire) {
		return false
	}
	for k := range s.MayAcquire {
		if _, ok := o.MayAcquire[k]; !ok {
			return false
		}
	}
	return true
}

// sumNode is one call-graph node: a declared function or a function
// literal.
type sumNode struct {
	pkg  *Package
	fn   *types.Func // nil for literals
	lit  *ast.FuncLit
	body *ast.BlockStmt
	pos  token.Pos
	sum  *Summary

	// Tarjan bookkeeping.
	index, low int
	onStack    bool
	callees    []*sumNode
}

// summarySet holds the computed summaries plus the suppression table the
// retirecheck propagation rule consults.
type summarySet struct {
	byFunc     map[*types.Func]*sumNode
	byLit      map[*ast.FuncLit]*sumNode
	suppressed func(pos token.Position, checker string) bool
}

// progIndex caches whole-program resolution facts.
type progIndex struct {
	// impl maps a module-local interface method to its unique concrete
	// implementation, when exactly one named type implements the
	// interface.
	impl map[*types.Func]*types.Func
}

func (prog *Program) index() *progIndex {
	if prog.idx != nil {
		return prog.idx
	}
	idx := &progIndex{impl: make(map[*types.Func]*types.Func)}

	var named []*types.Named
	var ifaces []*types.Named
	for _, pkg := range prog.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(nt) {
				ifaces = append(ifaces, nt)
			} else {
				named = append(named, nt)
			}
		}
	}
	for _, in := range ifaces {
		iface, ok := in.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		var impls []*types.Named
		for _, nt := range named {
			if types.Implements(nt, iface) || types.Implements(types.NewPointer(nt), iface) {
				impls = append(impls, nt)
			}
		}
		if len(impls) != 1 {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(impls[0]), true, m.Pkg(), m.Name())
			if cf, ok := obj.(*types.Func); ok {
				idx.impl[m] = cf
			}
		}
	}
	prog.idx = idx
	return idx
}

// summaryLayerExempt reports whether a callee's effects are fully
// captured by the checkers' symbol tables, so its computed summary must
// not be applied on top (Batch.Barrier's own body performs device writes
// that would otherwise read as a dirty epoch).
func summaryLayerExempt(fn *types.Func) bool {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if p, _ := recvTypeOf(fn); p != "" {
		pkgPath = p
	}
	return pkgPathHasSuffix(pkgPath, "internal/pmem") ||
		pkgPathHasSuffix(pkgPath, "internal/layout") ||
		pkgPathHasSuffix(pkgPath, "internal/rcu") ||
		pkgPathHasSuffix(pkgPath, "internal/hlock")
}

// ensureSummaries computes every function's Summary (idempotent).
// suppressedAt reports whether a position is covered by an
// //arcklint:allow directive for the given checker; a suppressed
// retirecheck site does not propagate its effect to callers — the allow
// asserts the discipline holds there, so the assertion holds for the
// call chain above it too.
func (prog *Program) ensureSummaries(suppressedAt func(pos token.Position, checker string) bool) {
	if prog.sums != nil {
		return
	}
	ss := &summarySet{
		byFunc:     make(map[*types.Func]*sumNode),
		byLit:      make(map[*ast.FuncLit]*sumNode),
		suppressed: suppressedAt,
	}
	if ss.suppressed == nil {
		ss.suppressed = func(token.Position, string) bool { return false }
	}
	prog.sums = ss

	// Collect nodes: every declared function body and every function
	// literal, in deterministic (position) order.
	var nodes []*sumNode
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var fn *types.Func
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					fn = obj
				}
				n := &sumNode{pkg: pkg, fn: fn, body: fd.Body, pos: fd.Pos()}
				nodes = append(nodes, n)
				if fn != nil {
					ss.byFunc[fn] = n
				}
			}
			ast.Inspect(file, func(node ast.Node) bool {
				if lit, ok := node.(*ast.FuncLit); ok {
					n := &sumNode{pkg: pkg, lit: lit, body: lit.Body, pos: lit.Pos()}
					nodes = append(nodes, n)
					ss.byLit[lit] = n
				}
				return true
			})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].pos < nodes[j].pos })

	// Edges: calls in each node's own body (nested literal bodies belong
	// to the literal's node).
	for _, n := range nodes {
		n.index = -1
		seen := make(map[*sumNode]bool)
		inspectOwnBody(n.body, func(node ast.Node) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			fn, lit := resolveCallee(prog, n.pkg, call)
			var target *sumNode
			if fn != nil {
				target = ss.byFunc[fn]
			} else if lit != nil {
				target = ss.byLit[lit]
			}
			if target != nil && !seen[target] {
				seen[target] = true
				n.callees = append(n.callees, target)
			}
			// A function-literal argument (htable's WithBucket callback,
			// a Domain.Defer thunk) runs under the call's scope or later;
			// its summary is consulted where the checkers model the call,
			// so the dependency edge must exist for ordering.
			for _, arg := range call.Args {
				if alit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					if t := ss.byLit[alit]; t != nil && !seen[t] {
						seen[t] = true
						n.callees = append(n.callees, t)
					}
				}
			}
		})
	}

	// Tarjan's SCC; components are emitted callees-first, which is the
	// bottom-up order the fixpoint needs.
	var (
		counter int
		stack   []*sumNode
		sccs    [][]*sumNode
	)
	var strongconnect func(n *sumNode)
	strongconnect = func(n *sumNode) {
		n.index = counter
		n.low = counter
		counter++
		stack = append(stack, n)
		n.onStack = true
		for _, m := range n.callees {
			if m.index < 0 {
				strongconnect(m)
				if m.low < n.low {
					n.low = m.low
				}
			} else if m.onStack && m.index < n.low {
				n.low = m.index
			}
		}
		if n.low == n.index {
			var scc []*sumNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range nodes {
		if n.index < 0 {
			strongconnect(n)
		}
	}

	for _, scc := range sccs {
		for _, n := range scc {
			n.sum = newBottomSummary()
		}
		// Iterate to a fixpoint. The lattice is tiny (a handful of
		// booleans, a clamped pin counter, and a set bounded by the lock
		// class table), so the loop terminates quickly; the cap is a
		// safety net for pathological recursion shapes.
		for iter := 0; iter < 16; iter++ {
			changed := false
			for _, n := range scc {
				next := computeSummary(prog, ss, n)
				if !next.equal(n.sum) {
					n.sum = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// inspectOwnBody walks body delivering every node except those inside
// nested function literals (the walk starts at the body, so any literal
// it meets is nested and owns its own call-graph node).
func inspectOwnBody(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn(lit)
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// summaryFor returns the callee's Summary when the call resolves to a
// summarized module-local function or literal outside the symbol-table
// layers, or nil.
func (prog *Program) summaryFor(pkg *Package, call *ast.CallExpr) *Summary {
	if prog.sums == nil {
		return nil
	}
	fn, lit := resolveCallee(prog, pkg, call)
	if lit != nil {
		if n := prog.sums.byLit[lit]; n != nil {
			return n.sum
		}
		return nil
	}
	if fn == nil || summaryLayerExempt(fn) {
		return nil
	}
	if n := prog.sums.byFunc[fn]; n != nil {
		return n.sum
	}
	return nil
}

// calleeName renders a resolved callee for finding messages.
func calleeName(prog *Program, pkg *Package, call *ast.CallExpr) string {
	fn, _ := resolveCallee(prog, pkg, call)
	if fn != nil {
		if _, t := recvTypeOf(fn); t != "" {
			return t + "." + fn.Name()
		}
		return fn.Name()
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "function literal"
}

// --- retirecheck's recycle and freshness helpers --------------------------

// recycleTarget classifies a call as one of the allocator-pool return
// primitives (FS.recyclePages / FS.recycleIno, matched by receiver type
// name so fixtures can declare the same shapes, following lockorder's
// class table). It returns the resource-bearing argument expressions.
func recycleTarget(fn *types.Func, call *ast.CallExpr) (string, []ast.Expr, bool) {
	if fn == nil {
		return "", nil, false
	}
	_, t := recvTypeOf(fn)
	if t != "FS" {
		return "", nil, false
	}
	switch fn.Name() {
	case "recyclePages":
		if len(call.Args) >= 2 {
			return "recyclePages", call.Args[1:], true
		}
	case "recycleIno":
		return "recycleIno", call.Args, true
	}
	return "", nil, false
}

// freshSource reports whether a call mints a fresh, never-published
// resource (FS.allocPage / FS.allocIno, same type-name matching).
func freshSource(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	_, t := recvTypeOf(fn)
	return t == "FS" && (fn.Name() == "allocPage" || fn.Name() == "allocIno")
}

// allFresh reports whether every resource argument is provably freshly
// allocated in this function: an identifier marked fresh, or a composite
// literal whose elements are all fresh identifiers.
func allFresh(pkg *Package, args []ast.Expr, fresh map[*types.Var]bool) bool {
	isFreshIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		return ok && fresh[v]
	}
	for _, arg := range args {
		if isFreshIdent(arg) {
			continue
		}
		if cl, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
			all := len(cl.Elts) > 0
			for _, el := range cl.Elts {
				if !isFreshIdent(el) {
					all = false
					break
				}
			}
			if all {
				continue
			}
		}
		return false
	}
	return true
}

// --- the summary computation walk ------------------------------------------

type sumState struct {
	dirty     bool // persist epoch may hold a body store
	barriered bool // >=1 Batch.Barrier so far on this path
	pin       int  // RCU pin depth
	fresh     map[*types.Var]bool
}

func (s *sumState) Copy() flowState {
	c := &sumState{
		dirty: s.dirty, barriered: s.barriered, pin: s.pin,
		fresh: make(map[*types.Var]bool, len(s.fresh)),
	}
	for k, v := range s.fresh {
		c.fresh[k] = v
	}
	return c
}

func (s *sumState) Merge(o flowState) {
	os := o.(*sumState)
	s.dirty = s.dirty || os.dirty
	s.barriered = s.barriered && os.barriered
	if os.pin > s.pin {
		s.pin = os.pin
	}
	for k := range s.fresh {
		if !os.fresh[k] {
			delete(s.fresh, k)
		}
	}
}

type sumClient struct {
	prog *Program
	ss   *summarySet
	pkg  *Package
	out  *Summary

	exited bool
	pinLo  int
	pinHi  int
}

func clampPin(d int) int {
	if d > 4 {
		return 4
	}
	if d < -4 {
		return -4
	}
	return d
}

// computeSummary runs one abstract-interpretation pass over the node's
// body, applying the current summaries of its callees.
func computeSummary(prog *Program, ss *summarySet, n *sumNode) *Summary {
	out := newBottomSummary()
	c := &sumClient{prog: prog, ss: ss, pkg: n.pkg, out: out}
	walkFunc(n.pkg, n.body, c, &sumState{fresh: make(map[*types.Var]bool)})
	if !c.exited {
		// Every path panics or loops forever; nothing reaches a return,
		// so the "always" facts are vacuously true and deltas are zero.
		out.AlwaysClean = true
	} else {
		if c.pinLo == c.pinHi {
			out.PinDelta = clampPin(c.pinLo)
		}
	}
	return out
}

func (c *sumClient) suppressedAt(pos token.Pos, checker string) bool {
	return c.ss.suppressed(c.prog.Fset.Position(pos), checker)
}

func (c *sumClient) onAssign(w *flowWalker, st flowState, as *ast.AssignStmt) {
	s := st.(*sumState)
	// A fresh-resource definition: v, err := fs.allocPage(...).
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
	// Rebinding a tracked fresh variable from anything else kills its
	// freshness.
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
				delete(s.fresh, v)
			}
		}
	}
	w.scan(st, as)
}

func (c *sumClient) onCall(w *flowWalker, st flowState, call *ast.CallExpr) {
	s := st.(*sumState)
	fn, lit := resolveCallee(c.prog, c.pkg, call)

	if fn != nil {
		// Persistence symbol rules (the pmem/layout layer is modeled by
		// symbols, not summaries).
		switch {
		case isMethod(fn, "internal/pmem", "Batch", "Barrier"):
			s.dirty = false
			s.barriered = true
			c.noteBlockPinned("Batch.Barrier")
			return
		case isMethod(fn, "internal/pmem", "Batch", "Drain"):
			c.noteBlockPinned("Batch.Drain")
			return
		case isBodyStore(c.pkg, fn, call):
			s.dirty = true
			return
		}
		// RCU symbol rules.
		if isMethod(fn, "internal/rcu", "Reader", "ReadLock") {
			s.pin++
			return
		}
		if isMethod(fn, "internal/rcu", "Reader", "ReadUnlock") {
			// Net-negative deltas are legal (unlock helpers), so no clamp
			// at zero here.
			s.pin--
			return
		}
		if isMethod(fn, "internal/rcu", "Domain", "Synchronize") ||
			isMethod(fn, "internal/rcu", "Domain", "Barrier") {
			c.noteBlockPinned("Domain." + fn.Name())
			return
		}
		// Locks.
		recvPkg, _ := recvTypeOf(fn)
		if pkgPathHasSuffix(recvPkg, "internal/hlock") {
			switch fn.Name() {
			case "Lock", "RLock":
				c.noteBlockPinned("hlock " + fn.Name())
				if cl, ok := classOfReceiver(c.pkg, call); ok {
					c.out.MayAcquire[cl.name] = cl
				}
			}
			return
		}
		if isMethod(fn, "internal/htable", "Table", "WithBucket") {
			c.out.MayAcquire[bucketClass.name] = bucketClass
			c.noteBlockPinned("Table.WithBucket")
			if len(call.Args) == 2 {
				if cb, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
					if cbn := c.ss.byLit[cb]; cbn != nil {
						c.applyCalleeSummary(s, cbn.sum, call)
					}
				}
			}
			return
		}
		if isMethod(fn, "internal/htable", "Table", "LockAll") {
			c.out.MayAcquire[bucketClass.name] = bucketClass
			c.noteBlockPinned("Table.LockAll")
			return
		}
		if p, t := recvTypeOf(fn); t == "Controller" && pkgPathHasSuffix(p, "internal/kernel") {
			c.noteBlockPinned("Controller." + fn.Name())
			return
		}
		// Direct pool-return primitives.
		if name, res, ok := recycleTarget(fn, call); ok {
			if !allFresh(c.pkg, res, s.fresh) &&
				!c.suppressedAt(call.Pos(), "retirecheck") && !c.out.MayRecycle {
				c.out.MayRecycle = true
				c.out.RecycleVia = name
			}
			return
		}
	}

	// Module-local callee: apply its summary.
	var sum *Summary
	if lit != nil {
		if ln := c.ss.byLit[lit]; ln != nil {
			sum = ln.sum
		}
	} else if fn != nil && !summaryLayerExempt(fn) {
		if fnn := c.ss.byFunc[fn]; fnn != nil {
			sum = fnn.sum
		}
	}
	if sum != nil {
		c.applyCalleeSummary(s, sum, call)
	}
}

func (c *sumClient) applyCalleeSummary(s *sumState, sum *Summary, call *ast.CallExpr) {
	if sum.MayStoreBody {
		s.dirty = true
	} else if sum.AlwaysClean {
		s.dirty = false
		s.barriered = true
	}
	for k, v := range sum.MayAcquire {
		c.out.MayAcquire[k] = v
	}
	s.pin = clampPin(s.pin + sum.PinDelta)
	if sum.MayBlockPinned && !c.out.MayBlockPinned {
		c.out.MayBlockPinned = true
		c.out.BlockVia = calleeName(c.prog, c.pkg, call) + " -> " + sum.BlockVia
	}
	if sum.MayRecycle && !c.suppressedAt(call.Pos(), "retirecheck") && !c.out.MayRecycle {
		c.out.MayRecycle = true
		c.out.RecycleVia = calleeName(c.prog, c.pkg, call) + " -> " + sum.RecycleVia
	}
}

func (c *sumClient) noteBlockPinned(via string) {
	if !c.out.MayBlockPinned {
		c.out.MayBlockPinned = true
		c.out.BlockVia = via
	}
}

func (c *sumClient) onReturn(st flowState, _ token.Pos) {
	s := st.(*sumState)
	if s.dirty {
		c.out.MayStoreBody = true
	}
	if !(s.barriered && !s.dirty) {
		c.out.AlwaysClean = false
	}
	if !c.exited {
		c.exited = true
		c.pinLo, c.pinHi = s.pin, s.pin
	} else {
		if s.pin < c.pinLo {
			c.pinLo = s.pin
		}
		if s.pin > c.pinHi {
			c.pinHi = s.pin
		}
	}
}
