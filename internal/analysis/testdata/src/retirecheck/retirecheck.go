// Package retirecheck exercises the reclamation protocol of the
// lock-free plane: a page or inode number a concurrent RCU reader may
// still reach must return to the allocator pool through a grace period —
// a Domain.Defer thunk or the Reclaim method of an object handed to
// Domain.Retire. The FS/allocPage/recyclePages shapes mirror the real
// libfs ones: the checker keys its symbol table on the receiver type name.
package retirecheck

import "fixture/internal/rcu"

// word stands in for the stubbed atomic.Uint64 slot of a block array:
// the checkers match arr[i].Store / .Load syntactically.
type word struct{ v uint64 }

func (w *word) Store(v uint64) { w.v = v }
func (w *word) Load() uint64   { return w.v }

type FS struct {
	dom *rcu.Domain
}

func (fs *FS) allocPage(cpu int) uint64 { return 1 }

func (fs *FS) allocIno() uint64 { return 1 }

func (fs *FS) recyclePages(cpu int, pages []uint64) {}

func (fs *FS) recycleIno(ino uint64) {}

// retirePages is the blessed route back to the pool: park the pages
// behind a grace period. The Defer thunk is the retire path itself, so
// the recycle inside it is the protocol working as intended.
func (fs *FS) retirePages(cpu int, pages []uint64) {
	fs.dom.Defer(func() {
		fs.recyclePages(cpu, pages)
	})
}

// retiree is the real libfs shape: the object that carries unpublished
// pages and an inode number past the grace period. Its Reclaim method is
// the retire path — retire hands a *retiree to Domain.Retire — so the
// recycles inside it are the protocol working as intended.
type retiree struct {
	fs    *FS
	cpu   int
	pages []uint64
	ino   uint64
}

func (r *retiree) Reclaim() {
	r.fs.recyclePages(r.cpu, r.pages)
	r.fs.recycleIno(r.ino)
}

func (fs *FS) retire(cpu int, pages []uint64, ino uint64) {
	fs.dom.Retire(&retiree{fs: fs, cpu: cpu, pages: pages, ino: ino})
}

// reclaimNow skips the grace period: it runs the retire path itself, and
// recycles beside it. Only the domain may call Reclaim.
func (fs *FS) reclaimNow(cpu int, pages []uint64, ino uint64) {
	r := &retiree{fs: fs, cpu: cpu, pages: pages}
	r.Reclaim()        // want "can recycle reader-reachable resources"
	fs.recycleIno(ino) // want "directly to the allocator pool"
}

// notRetired has a Reclaim method too, but nothing hands one to the
// domain: the name alone blesses nothing.
type notRetired struct{ fs *FS }

func (n *notRetired) Reclaim() {
	n.fs.recycleIno(1) // want "directly to the allocator pool"
}

// truncateShrink mirrors the pre-fix Truncate shrink path: it unpublishes
// the block pointers and immediately hands the pages back to the pool. A
// reader that loaded a pointer before the unpublish still dereferences
// the page after the pool gives it to the next writer.
func (fs *FS) truncateShrink(cpu int, arr []word, from, to int) {
	var freed []uint64
	for bi := from; bi < to; bi++ {
		freed = append(freed, arr[bi].Load())
		arr[bi].Store(0)
	}
	fs.recyclePages(cpu, freed) // want "directly to the allocator pool"
}

// truncateShrinkFixed is the post-fix sequence: unpublish, then retire.
func (fs *FS) truncateShrinkFixed(cpu int, arr []word, from, to int) {
	var freed []uint64
	for bi := from; bi < to; bi++ {
		freed = append(freed, arr[bi].Load())
		arr[bi].Store(0)
	}
	fs.retirePages(cpu, freed)
}

// freshFailure returns resources allocated in this very function and
// never published: no reader can hold them, direct recycle is legal.
func (fs *FS) freshFailure(cpu int, failed bool) bool {
	p := fs.allocPage(cpu)
	q := fs.allocIno()
	if failed {
		fs.recycleIno(q)
		fs.recyclePages(cpu, []uint64{p})
		return false
	}
	return true
}

// freeHelper hides the direct free inside a helper: flagged here as the
// primitive violation, and its summary carries MayRecycle upward.
func (fs *FS) freeHelper(cpu int, pages []uint64) {
	fs.recyclePages(cpu, pages) // want "directly to the allocator pool"
}

// oneDeep reaches the direct free through one call.
func (fs *FS) oneDeep(cpu int, pages []uint64) {
	fs.freeHelper(cpu, pages) // want "can recycle reader-reachable resources"
}

// twoDeep reaches it through two calls.
func (fs *FS) twoDeep(cpu int, pages []uint64) {
	fs.oneDeep(cpu, pages) // want "can recycle reader-reachable resources"
}

type reclaimer interface {
	reclaim(cpu int, pages []uint64)
}

type directReclaimer struct{ fs *FS }

func (d *directReclaimer) reclaim(cpu int, pages []uint64) {
	d.fs.recyclePages(cpu, pages) // want "directly to the allocator pool"
}

// viaInterface resolves through the interface's single implementation.
func viaInterface(r reclaimer, cpu int, pages []uint64) {
	r.reclaim(cpu, pages) // want "can recycle reader-reachable resources"
}

// viaClosure reaches the free through a function literal bound to a
// single-assignment local.
func viaClosure(fs *FS, cpu int, pages []uint64) {
	free := func() {
		fs.recyclePages(cpu, pages) // want "directly to the allocator pool"
	}
	free() // want "can recycle reader-reachable resources"
}
