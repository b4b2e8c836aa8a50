// Package hlock provides the low-level synchronization primitives ArckFS
// uses: spinlocks, readers-writer spinlocks, and the lease-based global
// rename lock introduced by the §4.6 patch.
//
// The spin primitives yield to the scheduler under contention so they
// behave correctly on machines with few cores (goroutines are not
// preemptible inside a pure spin on a single-core host).
package hlock

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// spinYield backs off after a burst of failed attempts.
func spinYield(attempts *int) {
	*attempts++
	if *attempts%16 == 0 {
		runtime.Gosched()
	}
}

// SpinLock is a test-and-set mutual exclusion lock.
// The zero value is unlocked.
type SpinLock struct {
	state atomic.Int32
	_     [60]byte // pad to a cache line against false sharing
}

// Lock acquires the lock, spinning (with scheduler yields) until free.
func (l *SpinLock) Lock() {
	attempts := 0
	for !l.state.CompareAndSwap(0, 1) {
		spinYield(&attempts)
	}
}

// TryLock acquires the lock if it is free and reports whether it did.
func (l *SpinLock) TryLock() bool {
	return l.state.CompareAndSwap(0, 1)
}

// Unlock releases the lock.
func (l *SpinLock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("hlock: unlock of unlocked SpinLock")
	}
}

// Locked reports a racy snapshot of whether the lock is held.
func (l *SpinLock) Locked() bool { return l.state.Load() != 0 }

// CountedSpin is a SpinLock that keeps its own traffic counters: every
// acquisition, and every Lock that found the lock held and had to wait.
// A failed TryLock counts nothing — the caller did not wait.
// The zero value is unlocked.
type CountedSpin struct {
	mu           SpinLock
	acquisitions atomic.Int64
	contended    atomic.Int64
}

// Lock acquires the lock, counting the acquisition and, if it had to
// spin, the contention.
func (l *CountedSpin) Lock() {
	if !l.mu.TryLock() {
		l.contended.Add(1)
		l.mu.Lock()
	}
	l.acquisitions.Add(1)
}

// TryLock acquires the lock if it is free and reports whether it did.
func (l *CountedSpin) TryLock() bool {
	ok := l.mu.TryLock()
	if ok {
		l.acquisitions.Add(1)
	}
	return ok
}

// Unlock releases the lock.
func (l *CountedSpin) Unlock() { l.mu.Unlock() }

// Counts returns the acquisitions so far and how many of them waited.
func (l *CountedSpin) Counts() (acquisitions, contended int64) {
	return l.acquisitions.Load(), l.contended.Load()
}

// RWSpin is a readers-writer spinlock with writer preference encoded as a
// single atomic counter: positive values count readers, the writerBias
// marks an exclusive holder.
// The zero value is unlocked.
type RWSpin struct {
	state atomic.Int64
	_     [56]byte
}

const writerBias = int64(1) << 40

// RLock acquires the lock in shared mode.
func (l *RWSpin) RLock() {
	attempts := 0
	for {
		if v := l.state.Load(); v >= 0 && l.state.CompareAndSwap(v, v+1) {
			return
		}
		spinYield(&attempts)
	}
}

// TryRLock acquires shared mode without spinning.
func (l *RWSpin) TryRLock() bool {
	v := l.state.Load()
	return v >= 0 && l.state.CompareAndSwap(v, v+1)
}

// RUnlock releases shared mode.
func (l *RWSpin) RUnlock() {
	if l.state.Add(-1) < 0 {
		panic("hlock: RUnlock without RLock")
	}
}

// Lock acquires the lock exclusively.
func (l *RWSpin) Lock() {
	attempts := 0
	for !l.state.CompareAndSwap(0, -writerBias) {
		spinYield(&attempts)
	}
}

// TryLock acquires exclusive mode without spinning.
func (l *RWSpin) TryLock() bool {
	return l.state.CompareAndSwap(0, -writerBias)
}

// Unlock releases exclusive mode.
func (l *RWSpin) Unlock() {
	if l.state.Add(writerBias) != 0 {
		panic("hlock: Unlock of RWSpin not exclusively held")
	}
}

// Locked reports a racy snapshot of whether any holder exists.
func (l *RWSpin) Locked() bool { return l.state.Load() != 0 }

// BRSlots is the number of per-slot reader counters a BRLock stripes
// readers over. Power of two so the slot pick is a mask.
const BRSlots = 32

// brSlot is one padded reader counter: readers on different slots touch
// different cache lines, so shared acquisition scales with core count
// instead of serializing on one contended line.
type brSlot struct {
	n atomic.Int64
	_ [56]byte
}

// BRLock is a big-reader readers-writer spinlock: shared acquisitions
// increment one of BRSlots cache-line-padded counters (picked by a
// stack-address hash, so a goroutine keeps reusing its slot), and an
// exclusive acquisition raises a writer flag and waits for every slot to
// drain. Compared to RWSpin this trades a costlier exclusive acquisition
// (a scan over BRSlots counters instead of one CAS) for two properties a
// many-tenant control plane needs:
//
//   - shared mode stops being a single contended cache line, so read-side
//     throughput no longer collapses as the reader count grows;
//   - the writer flag gives exclusive mode priority — new readers back
//     off while a writer waits, bounding enterExcl quiescence by the
//     in-flight readers instead of starving behind an endless stream of
//     new ones.
//
// RLock returns the slot index; the caller passes it back to RUnlock.
// The zero value is unlocked.
type BRLock struct {
	writer atomic.Int32
	_      [60]byte
	slots  [BRSlots]brSlot
}

// slot picks this goroutine's reader slot from its stack address:
// stable while the goroutine lives (modulo stack moves, which only cost
// a slot switch, never correctness — the token travels with the caller).
func (l *BRLock) slot() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((p>>10)^(p>>16)) & (BRSlots - 1)
}

// RLock acquires shared mode and returns the slot token for RUnlock.
func (l *BRLock) RLock() int {
	s := l.slot()
	attempts := 0
	for {
		if l.writer.Load() == 0 {
			l.slots[s].n.Add(1)
			if l.writer.Load() == 0 {
				return s
			}
			// A writer arrived between the two checks: back out so it
			// can drain, then retry behind it.
			l.slots[s].n.Add(-1)
		}
		spinYield(&attempts)
	}
}

// RUnlock releases shared mode; slot is the token RLock returned.
func (l *BRLock) RUnlock(slot int) {
	if l.slots[slot].n.Add(-1) < 0 {
		panic("hlock: RUnlock without RLock")
	}
}

// Lock acquires exclusive mode: raise the writer flag (queueing behind
// other writers), then wait for every reader slot to drain.
func (l *BRLock) Lock() {
	attempts := 0
	for !l.writer.CompareAndSwap(0, 1) {
		spinYield(&attempts)
	}
	for i := range l.slots {
		for l.slots[i].n.Load() != 0 {
			spinYield(&attempts)
		}
	}
}

// TryLock acquires exclusive mode only if no reader or writer holds the
// lock, without spinning.
func (l *BRLock) TryLock() bool {
	if !l.writer.CompareAndSwap(0, 1) {
		return false
	}
	for i := range l.slots {
		if l.slots[i].n.Load() != 0 {
			l.writer.Store(0)
			return false
		}
	}
	return true
}

// Unlock releases exclusive mode.
func (l *BRLock) Unlock() {
	if l.writer.Swap(0) != 1 {
		panic("hlock: Unlock of BRLock not exclusively held")
	}
}

// Downgrade turns an exclusive hold into a shared one with no moment
// unheld in between: readers may enter, writers still wait for the
// returned slot token's RUnlock.
func (l *BRLock) Downgrade() int {
	s := l.slot()
	l.slots[s].n.Add(1)
	l.Unlock()
	return s
}

// Locked reports a racy snapshot of whether any holder exists.
func (l *BRLock) Locked() bool {
	if l.writer.Load() != 0 {
		return true
	}
	for i := range l.slots {
		if l.slots[i].n.Load() != 0 {
			return true
		}
	}
	return false
}

// LeaseLock is a revocable exclusive lock held by a named owner with a
// deadline. The §4.6 patch uses one as the kernel's global rename lock:
// a LibFS acquires it around cross-directory directory renames, and the
// lease expiry prevents a malicious or crashed application from wedging
// every other application's renames forever.
type LeaseLock struct {
	mu       SpinLock
	owner    int64 // 0 = free
	deadline time.Time
	now      func() time.Time // test hook
}

// SetClock overrides the lease clock (for tests). Pass nil to restore the
// real clock.
func (l *LeaseLock) SetClock(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

func (l *LeaseLock) clock() time.Time {
	if l.now != nil {
		return l.now()
	}
	return time.Now()
}

// TryAcquire grants the lease to owner for ttl if the lock is free or the
// current lease has expired. It reports whether the lease was granted.
// owner must be nonzero.
func (l *LeaseLock) TryAcquire(owner int64, ttl time.Duration) bool {
	if owner == 0 {
		panic("hlock: zero lease owner")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != 0 && l.owner != owner && l.clock().Before(l.deadline) {
		return false
	}
	l.owner = owner
	l.deadline = l.clock().Add(ttl)
	return true
}

// Acquire spins until the lease is granted.
func (l *LeaseLock) Acquire(owner int64, ttl time.Duration) {
	attempts := 0
	for !l.TryAcquire(owner, ttl) {
		spinYield(&attempts)
	}
}

// Release returns the lease if owner still holds it and reports whether
// it did (false means the lease had already expired and been stolen).
func (l *LeaseLock) Release(owner int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != owner {
		return false
	}
	l.owner = 0
	return true
}

// Holder returns the current lease owner (0 if free), treating an expired
// lease as free.
func (l *LeaseLock) Holder() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != 0 && !l.clock().Before(l.deadline) {
		return 0
	}
	return l.owner
}
