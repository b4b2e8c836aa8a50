package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder enforces the declared partial order on hlock acquisition in
// internal/libfs and internal/kernel. Lock classes are identified by the
// (struct, field) pair holding the lock; the declared order, outermost
// first, is:
//
//	libfs/minode   < libfs/dirbucket < libfs/dirtail < libfs/diridx
//	             < libfs/inomu < libfs/pagemu
//	             < kernel/epoch < kernel/shadowshard < kernel/apps
//	             < kernel/mapping
//
// The kernel classes mirror the sharded control plane: the big-reader
// epoch is outermost, then the shadow-inode shard for the crossing's
// target, then the app table's leaf lock that fast paths take briefly
// while holding their shard, and innermost the per-mapping revocation
// lock. The counted locks are hlock.CountedSpin fields: a class resolves
// from the (struct, field) pair of an internal/hlock receiver, so the
// field names below are what keeps their ranks.
//
// libfs/dirbucket is the directory hash-table bucket lock, acquired
// through Table.WithBucket; the checker interprets the callback inline
// with the bucket held. Try-acquisitions (TryLock/TryRLock) cannot
// deadlock and are ignored, as are locks outside the class table (e.g.
// sync.Mutex fields, which stubbed imports keep invisible anyway).
//
// Nestings created across call boundaries (appendDentry's tail lock
// around ensureTailSpace's index lock, say) are seen through callee
// effect summaries: a call into a function whose summary says it may
// acquire a class ranked above a held class is flagged at the call site.
// Same-class interprocedural nesting is deliberately not flagged — the
// summary cannot distinguish instances, and the address-ordered
// double-lock idiom (rename, unlink's parent/child pair) is legitimate.
//
// On top of the pairwise checks, every held-then-acquired pair — direct
// or through a summary — feeds a whole-program acquisition graph, and
// any cycle in that graph (a potential deadlock no pairwise rank check
// implies by itself) is reported once, at the first edge that closes it.
var lockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "hlock acquisition in libfs/kernel must follow the declared " +
		"partial order (outermost first); the whole-program acquisition " +
		"graph must be acyclic",
	Run: runLockOrder,
}

type lockClass struct {
	rank int
	name string
}

// lockClasses maps (struct type name, field name) to its class. Keeping
// the key type-name based lets fixtures declare the same shapes.
var lockClasses = map[[2]string]lockClass{
	{"minode", "lock"}:       {0, "libfs/minode"},
	{"tailCursor", "mu"}:     {2, "libfs/dirtail"},
	{"dirState", "idxMu"}:    {3, "libfs/diridx"},
	{"FS", "inoMu"}:          {4, "libfs/inomu"},
	{"FS", "pageMu"}:         {5, "libfs/pagemu"},
	{"Controller", "epoch"}:  {6, "kernel/epoch"},
	{"shadowShard", "mu"}:    {7, "kernel/shadowshard"},
	{"Controller", "appsMu"}: {8, "kernel/apps"},
	{"Mapping", "mu"}:        {9, "kernel/mapping"},
}

// bucketClass is acquired via htable's WithBucket rather than a direct
// Lock call.
var bucketClass = lockClass{1, "libfs/dirbucket"}

type loState struct {
	// held maps class name -> class for every lock held on this path.
	held map[string]lockClass
}

func (s *loState) Copy() flowState {
	c := &loState{held: make(map[string]lockClass, len(s.held))}
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

func (s *loState) Merge(o flowState) {
	// Union: a lock held on either incoming path constrains what may be
	// acquired after the join.
	for k, v := range o.(*loState).held {
		s.held[k] = v
	}
}

// lockEdges accumulates the whole-program acquisition graph: an edge
// from->to means some path acquires class "to" while holding class
// "from". Each edge keeps the first position that created it (the walk
// order over packages, files, and declarations is deterministic).
type lockEdges struct {
	pos map[[2]string]token.Pos
}

func (e *lockEdges) add(from, to string, pos token.Pos) {
	k := [2]string{from, to}
	if _, ok := e.pos[k]; !ok {
		e.pos[k] = pos
	}
}

type loClient struct {
	pkg      *Package
	prog     *Program
	findings *[]Finding
	edges    *lockEdges
}

func (c *loClient) acquire(s *loState, cl lockClass, pos token.Pos) {
	for _, h := range s.held {
		switch {
		case h.rank == cl.rank:
			*c.findings = append(*c.findings, Finding{
				Pos: c.prog.Fset.Position(pos),
				Message: fmt.Sprintf("lock class %s acquired while a lock of the same "+
					"class is already held (self-deadlock risk)", cl.name),
			})
		case h.rank > cl.rank:
			*c.findings = append(*c.findings, Finding{
				Pos: c.prog.Fset.Position(pos),
				Message: fmt.Sprintf("%s acquired while holding %s: the declared order "+
					"is %s before %s", cl.name, h.name, cl.name, h.name),
			})
		}
		if h.rank != cl.rank {
			c.edges.add(h.name, cl.name, pos)
		}
	}
	s.held[cl.name] = cl
}

func (c *loClient) onCall(w *flowWalker, st flowState, call *ast.CallExpr) {
	s := st.(*loState)
	fn, _ := resolveCallee(c.prog, c.pkg, call)
	if fn == nil {
		// A function literal bound to a local still has a summary; fall
		// through to the interprocedural check below.
		c.checkSummary(s, call)
		return
	}
	if isMethod(fn, "internal/htable", "Table", "WithBucket") {
		// The callback runs with the bucket lock held; interpret it inline
		// on a throwaway copy (whatever it locks, it unlocks before
		// WithBucket returns).
		if len(call.Args) == 2 {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
				inner := s.Copy().(*loState)
				c.acquire(inner, bucketClass, call.Pos())
				w.block(lit.Body, inner)
				return
			}
		}
		c.acquire(s, bucketClass, call.Pos())
		delete(s.held, bucketClass.name)
		return
	}
	if isMethod(fn, "internal/htable", "Table", "LockAll") {
		// LockAll takes every bucket; the release happens through the
		// returned closure, which this checker cannot see, so the class
		// conservatively stays held to the end of the function.
		c.acquire(s, bucketClass, call.Pos())
		return
	}
	recvPkg, _ := recvTypeOf(fn)
	if pkgPathHasSuffix(recvPkg, "internal/hlock") {
		cl, ok := classOfReceiver(c.pkg, call)
		if !ok {
			return
		}
		switch fn.Name() {
		case "Lock", "RLock":
			c.acquire(s, cl, call.Pos())
		case "Unlock", "RUnlock":
			delete(s.held, cl.name)
		}
		return
	}
	c.checkSummary(s, call)
}

// checkSummary performs the interprocedural half of the check: the
// classes the callee can acquire against the held set. Same-class pairs
// are skipped — the summary cannot tell instances apart, and the
// address-ordered double-lock idiom is legitimate — but cross-class
// pairs are rank-checked and feed the acquisition graph.
func (c *loClient) checkSummary(s *loState, call *ast.CallExpr) {
	if sum := c.prog.summaryFor(c.pkg, call); sum != nil && len(sum.MayAcquire) > 0 {
		names := make([]string, 0, len(sum.MayAcquire))
		for n := range sum.MayAcquire {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cl := sum.MayAcquire[n]
			for _, h := range s.held {
				if h.rank == cl.rank {
					continue
				}
				if h.rank > cl.rank {
					*c.findings = append(*c.findings, Finding{
						Pos: c.prog.Fset.Position(call.Pos()),
						Message: fmt.Sprintf("call to %s can acquire %s while %s is held: "+
							"the declared order is %s before %s",
							calleeName(c.prog, c.pkg, call), cl.name, h.name, cl.name, h.name),
					})
				}
				c.edges.add(h.name, cl.name, call.Pos())
			}
		}
	}
}

func (c *loClient) onReturn(flowState, token.Pos) {}

// classOfReceiver resolves the lock field a call like tc.mu.Lock() or
// fs.pageMu[s].Lock() acquires, via the (owner struct, field) pair.
func classOfReceiver(pkg *Package, call *ast.CallExpr) (lockClass, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, false
	}
	recv := ast.Unparen(sel.X)
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ast.Unparen(ix.X)
	}
	fsel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, false
	}
	tv, ok := pkg.Info.Types[fsel.X]
	if !ok || tv.Type == nil {
		return lockClass{}, false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return lockClass{}, false
	}
	cl, ok := lockClasses[[2]string{named.Obj().Name(), fsel.Sel.Name}]
	return cl, ok
}

func runLockOrder(prog *Program) []Finding {
	var findings []Finding
	edges := &lockEdges{pos: make(map[[2]string]token.Pos)}
	eachFunc(prog, func(pkg *Package, decl *ast.FuncDecl) {
		c := &loClient{pkg: pkg, prog: prog, findings: &findings, edges: edges}
		walkFunc(pkg, decl.Body, c, &loState{held: make(map[string]lockClass)})
	})
	findings = append(findings, lockCycles(prog, edges)...)
	return findings
}

// lockCycles reports each strongly connected component of the
// acquisition graph with more than one class: a set of lock classes
// that can each be held while acquiring the next is a deadlock waiting
// for the right interleaving, whatever their declared ranks say.
func lockCycles(prog *Program, edges *lockEdges) []Finding {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range edges.pos {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sort.Strings(adj[n])
	}

	// Tarjan over the class graph (tiny: one node per lock class).
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	counter := 0
	var connect func(n string)
	connect = func(n string) {
		index[n] = counter
		low[n] = counter
		counter++
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range adj[n] {
			if _, seen := index[m]; !seen {
				connect(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []string
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			connect(n)
		}
	}

	rankOf := make(map[string]int, len(lockClasses)+1)
	for _, cl := range lockClasses {
		rankOf[cl.name] = cl.rank
	}
	rankOf[bucketClass.name] = bucketClass.rank

	var out []Finding
	for _, scc := range sccs {
		sort.Strings(scc)
		in := make(map[string]bool, len(scc))
		for _, n := range scc {
			in[n] = true
		}
		// Anchor the finding at the first rank-inversion edge inside the
		// component — the acquisition that closes the cycle (a cycle over
		// totally ranked classes must contain at least one inversion).
		var pos, anyPos token.Pos
		for k, p := range edges.pos {
			if !in[k[0]] || !in[k[1]] {
				continue
			}
			if anyPos == token.NoPos || p < anyPos {
				anyPos = p
			}
			if rankOf[k[0]] > rankOf[k[1]] && (pos == token.NoPos || p < pos) {
				pos = p
			}
		}
		if pos == token.NoPos {
			pos = anyPos
		}
		out = append(out, Finding{
			Pos: prog.Fset.Position(pos),
			Message: fmt.Sprintf("lock-order cycle among classes %s: each can be held "+
				"while acquiring the next, so a deadlock needs only the right interleaving",
				strings.Join(scc, ", ")),
		})
	}
	return out
}
