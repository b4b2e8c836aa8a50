// Package rcu implements epoch-based read-copy-update, the mechanism the
// §4.5 patch of the ArckFS+ paper introduces to protect directory hash
// buckets: readers traverse without locks, and memory unlinked by writers
// is reclaimed only after every reader that could hold a reference has
// left its critical section.
//
// The implementation is a classic three-epoch scheme. Each reader pins
// the global epoch on entry; Synchronize advances the epoch and waits for
// all pinned readers to observe it; objects handed to Retire are reclaimed
// by the first grace period that starts after they were retired.
//
// Retiring is the C artifact's call_rcu, which threads an intrusive
// rcu_head through the retired object and allocates nothing: the queue
// holds the object itself, as a Reclaimer, and a grace period sorts the
// queue into a buffer it keeps, so a retire-and-reclaim cycle in steady
// state allocates nothing either.
package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Reclaimer is an object a writer has unlinked and whose memory or
// resources may be reused once no reader can still hold it. Reclaim runs
// after a grace period, on the goroutine that completed it; it must not
// start a grace period of the same domain. Pointer types make the cheapest
// Reclaimers: queueing one allocates nothing.
type Reclaimer interface {
	Reclaim()
}

// Domain is an independent RCU context. A file system instance owns one.
type Domain struct {
	epoch atomic.Uint64 // global epoch, starts at 1

	// readers is replaced, never edited, under mu: a grace period walks
	// the list it loaded while threads come and go.
	mu      sync.Mutex
	readers atomic.Pointer[[]*Reader]

	cbMu     sync.Mutex
	retired  []deferred   // the queue, in retire order
	inflight atomic.Int64 // reaped objects not yet reclaimed

	// reapMu lets one grace period reclaim at a time, so that ripe — what
	// it took off the queue — can be one buffer, kept between them.
	reapMu sync.Mutex
	ripe   []deferred

	graces    atomic.Int64
	reclaimed atomic.Int64

	// AutoReclaimThreshold triggers an asynchronous grace period once
	// this many objects are queued, bounding deferred memory the way
	// userspace-RCU's batched reclamation does. Zero disables it.
	AutoReclaimThreshold int
	reclaiming           atomic.Bool
}

type deferred struct {
	epoch uint64 // epoch at Retire
	obj   Reclaimer
}

// NewDomain creates an RCU domain with auto-reclamation enabled.
func NewDomain() *Domain {
	d := &Domain{AutoReclaimThreshold: 4096}
	d.epoch.Store(1)
	return d
}

// Reader is a per-thread handle for entering read-side critical sections.
// A Reader must not be used concurrently from multiple goroutines.
type Reader struct {
	dom *Domain
	// pinned is 0 when quiescent, otherwise the epoch observed at
	// ReadLock.
	pinned atomic.Uint64
	depth  int
	_      [40]byte
}

// Register creates a Reader attached to the domain.
func (d *Domain) Register() *Reader {
	r := &Reader{dom: d}
	d.mu.Lock()
	old := d.loadReaders()
	list := append(old[:len(old):len(old)], r) // a copy: the old list is being walked
	d.readers.Store(&list)
	d.mu.Unlock()
	return r
}

// Unregister detaches the reader; it must be quiescent.
func (d *Domain) Unregister(r *Reader) {
	if r.pinned.Load() != 0 {
		panic("rcu: unregistering an active reader")
	}
	d.mu.Lock()
	old := d.loadReaders()
	list := make([]*Reader, 0, len(old))
	for _, x := range old {
		if x != r {
			list = append(list, x)
		}
	}
	d.readers.Store(&list)
	d.mu.Unlock()
}

func (d *Domain) loadReaders() []*Reader {
	if p := d.readers.Load(); p != nil {
		return *p
	}
	return nil
}

// ReadLock enters a read-side critical section. Nesting is allowed.
func (r *Reader) ReadLock() {
	if r.depth == 0 {
		r.pinned.Store(r.dom.epoch.Load())
	}
	r.depth++
}

// ReadUnlock leaves the innermost read-side critical section.
func (r *Reader) ReadUnlock() {
	if r.depth <= 0 {
		panic("rcu: ReadUnlock without ReadLock")
	}
	r.depth--
	if r.depth == 0 {
		r.pinned.Store(0)
	}
}

// Active reports whether the reader is inside a critical section.
func (r *Reader) Active() bool { return r.depth > 0 }

// Synchronize waits until every read-side critical section that was
// active when it was called has ended, then reclaims what was retired
// before the call.
func (d *Domain) Synchronize() {
	target := d.epoch.Add(1)
	for _, r := range d.loadReaders() {
		attempts := 0
		for {
			p := r.pinned.Load()
			if p == 0 || p >= target {
				break
			}
			attempts++
			if attempts%8 == 0 {
				runtime.Gosched()
			}
		}
	}
	d.graces.Add(1)
	d.reap(target)
}

// Retire queues obj to be reclaimed after a grace period. It may be
// called from writers holding locks; Reclaim runs on a later Synchronize
// (or Barrier). When the queue exceeds AutoReclaimThreshold, a background
// grace period drains it.
func (d *Domain) Retire(obj Reclaimer) {
	e := d.epoch.Load()
	d.cbMu.Lock()
	d.retired = append(d.retired, deferred{epoch: e, obj: obj})
	n := len(d.retired)
	d.cbMu.Unlock()
	if d.AutoReclaimThreshold > 0 && n >= d.AutoReclaimThreshold &&
		d.reclaiming.CompareAndSwap(false, true) {
		go func() {
			d.Synchronize()
			d.reclaiming.Store(false)
		}()
	}
}

// Defer retires a function: fn runs after a grace period.
func (d *Domain) Defer(fn func()) { d.Retire(callback(fn)) }

type callback func()

func (fn callback) Reclaim() { fn() }

// reap reclaims what was retired at least one full epoch before now, in
// retire order. What is not ripe yet closes up at the front of the queue,
// in place.
func (d *Domain) reap(now uint64) {
	d.reapMu.Lock()
	defer d.reapMu.Unlock()
	ripe := d.ripe[:0]
	d.cbMu.Lock()
	rest := d.retired[:0]
	for _, r := range d.retired {
		if r.epoch < now {
			ripe = append(ripe, r)
		} else {
			rest = append(rest, r)
		}
	}
	clear(d.retired[len(rest):])
	d.retired = rest
	d.inflight.Add(int64(len(ripe)))
	d.cbMu.Unlock()
	for i := range ripe {
		ripe[i].obj.Reclaim()
		ripe[i].obj = nil
		d.inflight.Add(-1)
	}
	d.reclaimed.Add(int64(len(ripe)))
	d.ripe = ripe
}

// Barrier runs grace periods until everything retired before the call
// has been reclaimed — including objects a concurrent grace period had
// already reaped but not yet reclaimed.
func (d *Domain) Barrier() {
	for d.Pending() > 0 {
		d.Synchronize()
		runtime.Gosched()
	}
}

// Pending returns the number of objects queued or being reclaimed (for
// tests, metrics, and reclaim-aware allocators). An object counts until
// its effects are visible: reaped-but-not-yet-reclaimed objects are
// included, so a caller that spins until Pending reaches zero observes
// everything a concurrent grace period was still releasing.
func (d *Domain) Pending() int {
	d.cbMu.Lock()
	n := len(d.retired) + int(d.inflight.Load())
	d.cbMu.Unlock()
	return n
}

// GracePeriods returns how many grace periods the domain has completed.
func (d *Domain) GracePeriods() int64 { return d.graces.Load() }

// Reclaimed returns how many retired objects grace periods have reclaimed.
func (d *Domain) Reclaimed() int64 { return d.reclaimed.Load() }
