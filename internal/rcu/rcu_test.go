package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arckfs/internal/race"
)

func TestReadLockNesting(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	r.ReadLock()
	r.ReadLock()
	if !r.Active() {
		t.Fatal("not active")
	}
	r.ReadUnlock()
	if !r.Active() {
		t.Fatal("outer section ended early")
	}
	r.ReadUnlock()
	if r.Active() {
		t.Fatal("still active")
	}
}

func TestReadUnlockUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDomain()
	r := d.Register()
	r.ReadUnlock()
}

func TestSynchronizeWaitsForReader(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	r.ReadLock()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Synchronize returned while a reader was active")
	default:
	}
	r.ReadUnlock()
	<-done
}

func TestSynchronizeIgnoresLaterReaders(t *testing.T) {
	// A reader that starts after Synchronize begins must not block it.
	d := NewDomain()
	r := d.Register()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	<-done // no readers: returns immediately
	r.ReadLock()
	defer r.ReadUnlock()
	done2 := make(chan struct{})
	r2 := d.Register()
	_ = r2
	go func() {
		// r is pinned at the current epoch; a Synchronize started now
		// must wait for it.
		d.Synchronize()
		close(done2)
	}()
	select {
	case <-done2:
		t.Fatal("Synchronize ignored an active reader")
	default:
	}
	r.ReadUnlock()
	<-done2
	r.ReadLock() // rebalance the deferred unlock
}

func TestDeferRunsAfterGracePeriod(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	var freed atomic.Bool
	r.ReadLock()
	d.Defer(func() { freed.Store(true) })
	if d.Pending() != 1 {
		t.Fatalf("Pending = %d", d.Pending())
	}
	go func() {
		d.Synchronize()
	}()
	if freed.Load() {
		t.Fatal("callback ran while reader active")
	}
	r.ReadUnlock()
	d.Barrier()
	if !freed.Load() {
		t.Fatal("callback never ran")
	}
}

func TestBarrierDrainsAll(t *testing.T) {
	d := NewDomain()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		d.Defer(func() { n.Add(1) })
	}
	d.Barrier()
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 callbacks", n.Load())
	}
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d", d.Pending())
	}
}

func TestUnregisterActivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDomain()
	r := d.Register()
	r.ReadLock()
	d.Unregister(r)
}

func TestUnregisteredReaderDoesNotBlock(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	d.Unregister(r)
	d.Synchronize() // must not hang
}

// Stress: writers retire versioned nodes; readers must never observe a
// node that was reclaimed while they were inside a critical section.
func TestStressReclamation(t *testing.T) {
	type node struct {
		val       int64
		reclaimed atomic.Bool
	}
	d := NewDomain()
	var cur atomic.Pointer[node]
	cur.Store(&node{val: 0})

	var stop atomic.Bool
	var wg sync.WaitGroup
	var violations atomic.Int64

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Register()
			defer d.Unregister(r)
			for !stop.Load() {
				r.ReadLock()
				n := cur.Load()
				if n.reclaimed.Load() {
					violations.Add(1)
				}
				r.ReadUnlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= 300; i++ {
			old := cur.Swap(&node{val: i})
			d.Defer(func() { old.reclaimed.Store(true) })
			d.Synchronize()
		}
		stop.Store(true)
	}()
	wg.Wait()
	d.Barrier()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d reclaimed-while-read violations", v)
	}
}

type countedObj struct{ reclaims int }

func (o *countedObj) Reclaim() { o.reclaims++ }

// TestRetireDoesNotAllocate pins a retire-and-reclaim cycle at zero heap
// objects once the queue and the reap buffer have their size: a pointer
// goes into the queue as it is, and a grace period moves it to a buffer
// the domain keeps.
func TestRetireDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := NewDomain()
	d.Register()
	objs := make([]countedObj, 16)
	round := func() {
		for i := range objs {
			d.Retire(&objs[i])
		}
		d.Synchronize()
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("16 retires and a grace period allocate %v objects, want 0", n)
	}
	if objs[0].reclaims != 102 || d.Pending() != 0 {
		t.Fatalf("object reclaimed %d times in 102 rounds, %d pending", objs[0].reclaims, d.Pending())
	}
	if got := d.Reclaimed(); got != 102*16 || d.GracePeriods() != 102 {
		t.Fatalf("Reclaimed = %d, GracePeriods = %d, want %d and 102", got, d.GracePeriods(), 102*16)
	}
}

// TestReclaimOrder: objects are reclaimed in the order they were retired,
// across grace periods that each leave part of the queue behind.
func TestReclaimOrder(t *testing.T) {
	d := NewDomain()
	var got []int
	for i := 0; i < 40; i++ {
		i := i
		d.Defer(func() { got = append(got, i) })
		if i%7 == 6 {
			d.Synchronize()
		}
	}
	d.Barrier()
	for i, v := range got {
		if v != i {
			t.Fatalf("reclaim order %v", got)
		}
	}
	if len(got) != 40 {
		t.Fatalf("%d of 40 reclaimed", len(got))
	}
}

type pagesObj struct {
	pages     int
	reclaimed atomic.Bool
}

func (o *pagesObj) Reclaim()    { o.reclaimed.Store(true) }
func (o *pagesObj) Weight() int { return o.pages }

// TestAutoReclaimCountsPages: the background grace period starts when the
// queue holds autoReclaimPages pages, not that many objects. One object
// that weighs the bound is reclaimed on its own, with no Synchronize or
// Barrier; one object short of the bound, each weighing 1 (an object
// without Weight, or one holding no pages), still waits.
func TestAutoReclaimCountsPages(t *testing.T) {
	short := NewDomain()
	objs := make([]countedObj, autoReclaimPages-2)
	for i := range objs {
		short.Retire(&objs[i])
	}
	short.Retire(&pagesObj{})
	if p, n := short.PendingPages(), short.Pending(); p != autoReclaimPages-1 || n != autoReclaimPages-1 {
		t.Fatalf("PendingPages = %d, Pending = %d, want %d each", p, n, autoReclaimPages-1)
	}

	full := NewDomain()
	big := &pagesObj{pages: autoReclaimPages}
	full.Retire(big)
	for deadline := time.Now().Add(5 * time.Second); !big.reclaimed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("an object of %d pages not reclaimed within 5 s: %d grace periods, %d pages pending",
				autoReclaimPages, full.GracePeriods(), full.PendingPages())
		}
	}
	for deadline := time.Now().Add(5 * time.Second); full.PendingPages() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pages pending after the reclaim", full.PendingPages())
		}
	}

	if g := short.GracePeriods(); g != 0 || short.Pending() != autoReclaimPages-1 {
		t.Fatalf("%d objects short of the bound started %d grace periods, %d left pending",
			autoReclaimPages-1, g, short.Pending())
	}
}
