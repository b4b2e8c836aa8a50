// Package pmalloc manages the data-page space of the simulated persistent
// memory device. Free-space state is volatile, as in log-structured PM
// file systems: a mount rebuilds it by walking the reachable core state,
// so allocation never pays persistence costs.
//
// Allocation is striped to reduce cross-thread contention: each virtual
// CPU draws from its own stripe and refills from the global pool in
// batches. A CPU whose stripe and the global pool are both dry steals
// from a sibling stripe.
package pmalloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"arckfs/internal/hlock"
	"arckfs/internal/layout"
)

const (
	stripes     = 8
	refillBatch = 64
)

// Allocator hands out page numbers in [DataStart, PageCount).
type Allocator struct {
	globalMu sync.Mutex
	global   []uint64

	stripe [stripes]struct {
		mu   hlock.SpinLock
		free []uint64
		_    [40]byte
	}

	steals atomic.Int64 // pages moved between stripes
}

// New creates an allocator with every data page of g free.
func New(g layout.Geometry) *Allocator {
	return NewExcluding(g)
}

// NewExcluding creates an allocator with every data page of g free except
// the listed pages (pages already in use, e.g. the root tail-set).
func NewExcluding(g layout.Geometry, used ...uint64) *Allocator {
	a := &Allocator{}
	skip := make(map[uint64]bool, len(used))
	for _, p := range used {
		skip[p] = true
	}
	a.global = make([]uint64, 0, g.PageCount-g.DataStart)
	// Push descending so allocation hands out ascending page numbers,
	// which keeps test output stable and access patterns sequential.
	for p := g.PageCount - 1; p >= g.DataStart; p-- {
		if !skip[p] {
			a.global = append(a.global, p)
		}
	}
	return a
}

// NewEmpty creates an allocator with no free pages; recovery populates it
// with Free as it discovers unreachable pages.
func NewEmpty() *Allocator { return &Allocator{} }

// Steals returns the number of pages stolen from sibling stripes.
func (a *Allocator) Steals() int64 { return a.steals.Load() }

// Alloc returns one free page for the given virtual CPU. When both the
// CPU's stripe and the global pool are dry it steals from a sibling
// stripe before reporting the device full: pages freed locally on one
// CPU (FreeLocal) stay allocatable from every other.
func (a *Allocator) Alloc(cpu int) (uint64, error) {
	si := int(uint(cpu) % stripes)
	s := &a.stripe[si]
	s.mu.Lock()
	if len(s.free) == 0 {
		a.globalMu.Lock()
		n := refillBatch
		if n > len(a.global) {
			n = len(a.global)
		}
		s.free = append(s.free, a.global[len(a.global)-n:]...)
		a.global = a.global[:len(a.global)-n]
		a.globalMu.Unlock()
	}
	if len(s.free) == 0 {
		// Steal with no lock held on our own stripe, so two starving
		// CPUs raiding each other cannot deadlock.
		s.mu.Unlock()
		stolen := a.steal(si)
		if len(stolen) == 0 {
			return 0, fmt.Errorf("pmalloc: out of pages")
		}
		s.mu.Lock()
		s.free = append(s.free, stolen...)
	}
	p := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.mu.Unlock()
	return p, nil
}

// steal takes up to half of the first non-empty sibling stripe's pages,
// trying the stripes after si in turn. At most one stripe lock is held at
// a time.
func (a *Allocator) steal(si int) []uint64 {
	for i := 1; i < stripes; i++ {
		v := &a.stripe[(si+i)%stripes]
		v.mu.Lock()
		n := (len(v.free) + 1) / 2
		if n == 0 {
			v.mu.Unlock()
			continue
		}
		stolen := append([]uint64(nil), v.free[len(v.free)-n:]...)
		v.free = v.free[:len(v.free)-n]
		v.mu.Unlock()
		a.steals.Add(int64(n))
		return stolen
	}
	return nil
}

// AllocBatch returns n free pages.
func (a *Allocator) AllocBatch(cpu, n int) ([]uint64, error) {
	pages := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		p, err := a.Alloc(cpu)
		if err != nil {
			a.Free(pages...)
			return nil, err
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// Free returns pages to the global pool.
func (a *Allocator) Free(pages ...uint64) {
	if len(pages) == 0 {
		return
	}
	a.globalMu.Lock()
	a.global = append(a.global, pages...)
	a.globalMu.Unlock()
}

// FreeLocal returns pages to cpu's own stripe, keeping them hot for that
// CPU's next allocations without a trip through the global pool. A
// stripe holds at most 2*refillBatch pages this way; the overflow spills
// to the global pool. Pages parked in a stripe remain reachable from
// other CPUs through Alloc's stealing path.
func (a *Allocator) FreeLocal(cpu int, pages ...uint64) {
	if len(pages) == 0 {
		return
	}
	s := &a.stripe[uint(cpu)%stripes]
	s.mu.Lock()
	s.free = append(s.free, pages...)
	var spill []uint64
	if len(s.free) > 2*refillBatch {
		k := len(s.free) - 2*refillBatch
		spill = append([]uint64(nil), s.free[:k]...)
		s.free = append(s.free[:0], s.free[k:]...)
	}
	s.mu.Unlock()
	a.Free(spill...)
}

// FreeCount returns the total number of free pages (racy snapshot).
func (a *Allocator) FreeCount() int {
	a.globalMu.Lock()
	n := len(a.global)
	a.globalMu.Unlock()
	for i := range a.stripe {
		s := &a.stripe[i]
		s.mu.Lock()
		n += len(s.free)
		s.mu.Unlock()
	}
	return n
}
