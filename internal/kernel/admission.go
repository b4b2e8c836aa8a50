package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"arckfs/internal/telemetry"
)

// admission is the fair-share crossing admission scheduler: at most
// MaxInflight crossings run concurrently, and when the slots are full,
// excess crossings queue per tenant and are handed off by weighted
// deficit round-robin. The scheduler sits in front of the epoch lock
// (syscall runs it before the epoch is taken), so a queued crossing
// holds no kernel lock while it waits and one hot tenant cannot convoy
// every other tenant's crossings behind its own burst.
//
// The fast path is one CAS on the free-slot counter. The slow path
// enqueues a channel under the scheduler mutex, re-checks the slot
// counter (closing the lost-wakeup window against a concurrent release
// that saw an empty queue), and blocks. A finishing crossing hands its
// slot directly to the picked waiter — the slot never returns to the
// free counter, so a waiting tenant cannot be starved by fast-path
// arrivals racing the refill.
type admission struct {
	dim *telemetry.AppDim

	slots atomic.Int64 // free slots (fast path)

	admitted atomic.Int64 // crossings admitted (fast or queued)
	queued   atomic.Int64 // crossings that waited in the queue
	waitNS   atomic.Int64 // total queued wait
	handoffs atomic.Int64 // direct slot handoffs
	depth    atomic.Int64 // current queue depth (gauge)

	mu      sync.Mutex
	qs      map[AppID]*tenantQ
	ring    []*tenantQ // tenants with queued waiters, round-robin order
	ringIdx int

	// releaseFn is the preallocated crossing-end hook syscall returns.
	releaseFn func()
}

// tenantQ is one tenant's waiter queue plus its deficit round-robin
// state. Entries persist across crossings (so weights stick) and are
// dropped by evict when the tenant unregisters.
type tenantQ struct {
	app     AppID
	weight  int64 // fair-share weight (<=0 treated as 1)
	deficit int64
	waiters []chan struct{}
	inRing  bool
}

func newAdmission(maxInflight int, dim *telemetry.AppDim) *admission {
	ad := &admission{dim: dim, qs: make(map[AppID]*tenantQ)}
	ad.slots.Store(int64(maxInflight))
	ad.releaseFn = ad.release
	return ad
}

// tryAcquire takes a free slot without queueing.
func (ad *admission) tryAcquire() bool {
	for {
		s := ad.slots.Load()
		if s <= 0 {
			return false
		}
		if ad.slots.CompareAndSwap(s, s-1) {
			return true
		}
	}
}

// admit blocks until the crossing may proceed.
func (ad *admission) admit(app AppID, sink telemetry.SpanSink) {
	if ad.tryAcquire() {
		ad.admitted.Add(1)
		return
	}
	begin := time.Now()
	ch := ad.enqueue(app)
	// Lost-wakeup guard: a release may have refilled the free counter
	// after it saw an empty queue but before our enqueue landed.
	if ad.tryAcquire() {
		if ad.dequeue(app, ch) {
			ad.admitted.Add(1)
			return
		}
		// Our channel was already handed a slot: we hold two, return one.
		ad.release()
	}
	<-ch
	wait := time.Since(begin).Nanoseconds()
	ad.admitted.Add(1)
	ad.queued.Add(1)
	ad.waitNS.Add(wait)
	ad.dim.Add(app, telemetry.AppAdmitQueued, 1)
	ad.dim.Add(app, telemetry.AppAdmitWaitNS, wait)
	if sink != nil {
		sink.SpanEvent(telemetry.SpanEvAdmitWait, int64(app), wait)
	}
}

func (ad *admission) enqueue(app AppID) chan struct{} {
	ch := make(chan struct{})
	ad.mu.Lock()
	q := ad.qs[app]
	if q == nil {
		q = &tenantQ{app: app, weight: 1}
		ad.qs[app] = q
	}
	q.waiters = append(q.waiters, ch)
	if !q.inRing {
		q.inRing = true
		ad.ring = append(ad.ring, q)
	}
	ad.mu.Unlock()
	ad.depth.Add(1)
	return ch
}

// dequeue removes ch from app's queue if it is still waiting, reporting
// whether it did (false means a release already handed ch a slot).
func (ad *admission) dequeue(app AppID, ch chan struct{}) bool {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	q := ad.qs[app]
	if q == nil {
		return false
	}
	for i, w := range q.waiters {
		if w == ch {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			ad.depth.Add(-1)
			return true
		}
	}
	return false
}

// release ends a crossing: hand the slot directly to the next waiter
// picked by weighted deficit round-robin, or return it to the free
// counter when nobody waits.
func (ad *admission) release() {
	ad.mu.Lock()
	ch := ad.pickLocked()
	ad.mu.Unlock()
	if ch != nil {
		ad.handoffs.Add(1)
		close(ch)
		return
	}
	ad.slots.Add(1)
}

// pickLocked runs one WDRR scheduling decision: visit tenants in ring
// order, topping each visited tenant's deficit up by its weight, and
// serve the first tenant with both a positive deficit and a waiter.
// Terminates because every visit either serves, removes a drained
// tenant, or raises a deficit above zero (so the next lap serves).
func (ad *admission) pickLocked() chan struct{} {
	for len(ad.ring) > 0 {
		if ad.ringIdx >= len(ad.ring) {
			ad.ringIdx = 0
		}
		q := ad.ring[ad.ringIdx]
		if len(q.waiters) == 0 {
			// Drained: leave the ring and forfeit the residual deficit
			// (a returning tenant starts fresh — unused credit must not
			// accumulate into a future burst).
			q.inRing = false
			q.deficit = 0
			ad.ring = append(ad.ring[:ad.ringIdx], ad.ring[ad.ringIdx+1:]...)
			continue
		}
		if q.deficit > 0 {
			q.deficit--
			ch := q.waiters[0]
			q.waiters = q.waiters[1:]
			ad.depth.Add(-1)
			return ch
		}
		w := q.weight
		if w <= 0 {
			w = 1
		}
		q.deficit += w
		ad.ringIdx++
	}
	return nil
}

// setWeight records app's fair-share weight for future scheduling
// rounds.
func (ad *admission) setWeight(app AppID, w int64) {
	ad.mu.Lock()
	q := ad.qs[app]
	if q == nil {
		q = &tenantQ{app: app}
		ad.qs[app] = q
	}
	if w <= 0 {
		w = 1
	}
	q.weight = w
	ad.mu.Unlock()
}

// evict drops a departed tenant's queue state so the scheduler's
// footprint tracks live tenants. A tenant with waiters still queued is
// left alone (they drain through normal handoff first).
func (ad *admission) evict(app AppID) {
	ad.mu.Lock()
	if q := ad.qs[app]; q != nil && len(q.waiters) == 0 {
		delete(ad.qs, app)
		if q.inRing {
			for i, r := range ad.ring {
				if r == q {
					ad.ring = append(ad.ring[:i], ad.ring[i+1:]...)
					break
				}
			}
		}
	}
	ad.mu.Unlock()
}

// Nil-safe counter reads for the kernel.admission.* gauges.

func (ad *admission) admittedCount() int64 {
	if ad == nil {
		return 0
	}
	return ad.admitted.Load()
}

func (ad *admission) queuedCount() int64 {
	if ad == nil {
		return 0
	}
	return ad.queued.Load()
}

func (ad *admission) waitNSCount() int64 {
	if ad == nil {
		return 0
	}
	return ad.waitNS.Load()
}

func (ad *admission) handoffCount() int64 {
	if ad == nil {
		return 0
	}
	return ad.handoffs.Load()
}

func (ad *admission) queueDepth() int64 {
	if ad == nil {
		return 0
	}
	return ad.depth.Load()
}
