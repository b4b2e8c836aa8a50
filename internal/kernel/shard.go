package kernel

import (
	"sync/atomic"
	"time"

	"arckfs/internal/hlock"
)

// Control-plane sharding (scalability work item): the controller's
// metadata is split into lock-striped shards so independent crossings on
// different inodes proceed in parallel instead of convoying behind one
// global mutex.
//
// Concurrency scheme — a big-reader epoch over fine-grained shards:
//
//   - Single-inode crossings (Acquire, a Transfer's files, grants,
//     ReturnPages, SetACL, ...) run under epoch.RLock plus the target
//     shard's spinlock, which also guards the entry's ACL overrides. The
//     app table has its own short leaf lock; page-owner words are
//     single-word atomics. Fast-path holders never take two locks of the
//     same class.
//   - Multi-inode crossings (a Transfer's directories, which can create,
//     relocate, or free children across shards; UnregisterApp; expired-
//     lease reclaim) take epoch.Lock, draining every fast-path holder:
//     the exclusive holder owns the whole controller, exactly like the
//     old global mutex, so cross-inode atomicity is unchanged. A batch
//     holds its epoch to its one fence, downgraded to shared for the
//     files after its directories (transfer).
//   - A vectored acquire (AcquireBatch) is single-inode crossings in
//     sequence under one shared epoch: it takes its inodes' shard locks one
//     at a time, in list order, and never holds two. Its first inode alone
//     may punt to the exclusive epoch, after the shared one is dropped.
//
// The declared lock order (see internal/analysis lockorder) is
// Controller.epoch < shadowShard.mu < Controller.appsMu < Mapping.mu.

const (
	// nShadow is the shadow shard count. Shard-lock contention follows how
	// many crossings run at once, which GOMAXPROCS bounds, not how many
	// apps are registered, so the table is fixed.
	nShadow = 16
	// leaseTTL bounds how long an application may hold an inode another
	// application is waiting for (tests advance the clock, SetClock).
	leaseTTL = 10 * time.Second
	// renameLeaseTTL bounds the global rename lock lease (§4.6).
	renameLeaseTTL = time.Second
)

// shadowShard holds a stripe of the shadow-inode table. The lock's
// counters feed the kernel.shard.* telemetry and arckshell's `shards`
// command.
type shadowShard struct {
	mu hlock.CountedSpin
	m  map[uint64]*shadowEnt
}

func (c *Controller) shardOf(ino uint64) *shadowShard {
	return &c.shadow[shardIndex(ino)]
}

// shardIndex returns ino's shard index (span payloads and tooling).
func shardIndex(ino uint64) int { return int(ino % nShadow) }

// enterExcl begins an exclusive (multi-inode) crossing: every fast-path
// holder drains before it returns.
func (c *Controller) enterExcl() {
	c.epoch.Lock()
	c.Stats.EpochExclusive.Add(1)
}

func (c *Controller) exitExcl() { c.epoch.Unlock() }

// shadowGet looks ino up in its shard. held, if non-nil, is a shard the
// caller already holds: lookups that land on it use the lock already
// held instead of re-acquiring (fast-path callers pass their own shard;
// exclusive-epoch callers pass nil and take the brief leaf lock).
func (c *Controller) shadowGet(ino uint64, held *shadowShard) *shadowEnt {
	sh := c.shardOf(ino)
	if sh == held {
		return sh.m[ino]
	}
	sh.mu.Lock()
	se := sh.m[ino]
	sh.mu.Unlock()
	return se
}

// shadowPut inserts ino's entry, with the same held-shard convention as
// shadowGet.
func (c *Controller) shadowPut(ino uint64, se *shadowEnt, held *shadowShard) {
	sh := c.shardOf(ino)
	if sh == held {
		sh.m[ino] = se
		return
	}
	sh.mu.Lock()
	sh.m[ino] = se
	sh.mu.Unlock()
}

// shadowDelete removes ino's entry, with the same held-shard convention
// as shadowGet.
func (c *Controller) shadowDelete(ino uint64, held *shadowShard) {
	sh := c.shardOf(ino)
	if sh == held {
		delete(sh.m, ino)
		return
	}
	sh.mu.Lock()
	delete(sh.m, ino)
	sh.mu.Unlock()
}

// shadowRange calls fn for every shadow entry. Exclusive epoch or
// single-threaded (mount/recovery) callers only.
func (c *Controller) shadowRange(fn func(ino uint64, se *shadowEnt)) {
	for i := range c.shadow {
		for ino, se := range c.shadow[i].m {
			fn(ino, se)
		}
	}
}

// shadowCount returns the number of shadow entries (exclusive epoch or
// mount-time callers).
func (c *Controller) shadowCount() int {
	n := 0
	for i := range c.shadow {
		n += len(c.shadow[i].m)
	}
	return n
}

// pageOwnerAt, setPageOwner and casPageOwner are the only accessors of the
// page-owner words: each is one atomic load, store or compare-and-swap, so
// no lock orders them.
func (c *Controller) pageOwnerAt(page uint64) pageOwner {
	return pageOwner(atomic.LoadUint64(&c.pages[page]))
}

func (c *Controller) setPageOwner(page uint64, o pageOwner) {
	atomic.StoreUint64(&c.pages[page], uint64(o))
}

// casPageOwner sets page's owner to next only if it currently equals
// prev, reporting whether the swap happened.
func (c *Controller) casPageOwner(page uint64, prev, next pageOwner) bool {
	return atomic.CompareAndSwapUint64(&c.pages[page], uint64(prev), uint64(next))
}

// lookupApp returns the registered app, or nil.
func (c *Controller) lookupApp(id AppID) *app {
	c.appsMu.Lock()
	a := c.apps[id]
	c.appsMu.Unlock()
	return a
}

// inoGranted reports whether ino was granted to app and not yet bound to
// a committed creation.
func (c *Controller) inoGranted(id AppID, ino uint64) bool {
	c.appsMu.Lock()
	a := c.apps[id]
	ok := a != nil && a.grantedInos[ino]
	c.appsMu.Unlock()
	return ok
}

// ungrant drops ino from app's granted set (the creation committed).
func (c *Controller) ungrant(id AppID, ino uint64) {
	c.appsMu.Lock()
	if a := c.apps[id]; a != nil {
		delete(a.grantedInos, ino)
	}
	c.appsMu.Unlock()
}

// ShardStat is one lock's traffic counters (telemetry; the arckshell
// `shards` command renders these).
type ShardStat struct {
	Kind         string // "shadow" or "apps"
	Index        int
	Acquisitions int64
	Contended    int64
}

// ShardStats snapshots the acquisition and contention counters of every
// counted control-plane lock: one row per shadow shard, then the app
// table's.
func (c *Controller) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, nShadow+1)
	for i := range c.shadow {
		acq, cont := c.shadow[i].mu.Counts()
		out = append(out, ShardStat{"shadow", i, acq, cont})
	}
	acq, cont := c.appsMu.Counts()
	return append(out, ShardStat{"apps", 0, acq, cont})
}

// shardTelemetry sums a counter over every shard.
func (c *Controller) shardTelemetry(contended bool) int64 {
	var n int64
	for _, s := range c.ShardStats() {
		if contended {
			n += s.Contended
		} else {
			n += s.Acquisitions
		}
	}
	return n
}

// now reads the (swappable, race-safe) lease clock.
func (c *Controller) now() time.Time {
	return (*c.clock.Load())()
}
