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
//   - Single-inode crossings (Acquire, file Release/Commit, grants,
//     ReturnPages, SetACL, ...) run under epoch.RLock plus the target
//     shard's spinlock, which also guards the entry's ACL overrides. The
//     app table has its own short leaf lock; page-owner words are
//     single-word atomics. Fast-path holders never take two locks of the
//     same class.
//   - Multi-inode crossings (directory Release/Commit, which can create,
//     relocate, or free children across shards; ForceRelease; expired-
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
	// nShadowMin is the floor (and initial) shadow shard count; the
	// controller grows the table with the registered-app count up to
	// nShadowMax (see maybeGrowShards).
	nShadowMin = 16
	nShadowMax = 4096
	// renameLeaseTTL bounds the global rename lock lease (§4.6).
	renameLeaseTTL = time.Second
)

// shadowGen is one generation of the shadow-shard table. The controller
// swaps in a larger generation (under the exclusive epoch) as tenants
// register, so shard count scales with tenant count instead of pinning
// 10k tenants' hot inodes onto 16 locks. Readers load the generation
// pointer once per access; the swap is safe because it only happens while
// every shared-epoch holder is drained.
type shadowGen struct {
	shards []shadowShard
	mask   uint64
}

// shardsFor returns the shard count appropriate for napps registered
// applications: the next power of two at or above napps, clamped to
// [nShadowMin, nShadowMax].
func shardsFor(napps int) int {
	n := nShadowMin
	for n < napps && n < nShadowMax {
		n <<= 1
	}
	return n
}

func newShadowGen(n int) *shadowGen {
	g := &shadowGen{shards: make([]shadowShard, n), mask: uint64(n - 1)}
	for i := range g.shards {
		g.shards[i].m = make(map[uint64]*shadowEnt)
	}
	return g
}

// maybeGrowShards grows the shadow table when the app count has outrun
// the shard count. The fast path is one atomic load and a compare; the
// grow path drains the epoch, rehashes every entry into a fresh
// generation, and folds the old generation's lock-traffic counters into
// the retired totals so the kernel.shard.* gauges stay monotonic.
func (c *Controller) maybeGrowShards(napps int) {
	want := shardsFor(napps)
	if want <= len(c.shadow.Load().shards) {
		return
	}
	c.enterExcl()
	defer c.exitExcl()
	old := c.shadow.Load()
	if want <= len(old.shards) {
		return // raced with another grower
	}
	next := newShadowGen(want)
	for i := range old.shards {
		sh := &old.shards[i]
		for ino, se := range sh.m {
			next.shards[ino&next.mask].m[ino] = se
		}
		acq, cont := sh.mu.Counts()
		c.shadowRetiredAcq.Add(acq)
		c.shadowRetiredCont.Add(cont)
	}
	c.shadow.Store(next)
}

// shadowShard holds a stripe of the shadow-inode table. The lock's
// counters feed the kernel.shard.* telemetry and arckshell's `shards`
// command.
type shadowShard struct {
	mu hlock.CountedSpin
	m  map[uint64]*shadowEnt
}

func (c *Controller) shardOf(ino uint64) *shadowShard {
	g := c.shadow.Load()
	return &g.shards[ino&g.mask]
}

// shardIndex returns ino's shard index in the current generation (span
// payloads and tooling).
func (c *Controller) shardIndex(ino uint64) int {
	return int(ino & c.shadow.Load().mask)
}

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
	g := c.shadow.Load()
	for i := range g.shards {
		for ino, se := range g.shards[i].m {
			fn(ino, se)
		}
	}
}

// shadowCount returns the number of shadow entries (exclusive epoch or
// mount-time callers).
func (c *Controller) shadowCount() int {
	n := 0
	g := c.shadow.Load()
	for i := range g.shards {
		n += len(g.shards[i].m)
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
// table's. Shadow-shard rows reset when the table grows a generation; the
// retired generations' totals stay in the aggregate gauges
// (shardTelemetry).
func (c *Controller) ShardStats() []ShardStat {
	g := c.shadow.Load()
	out := make([]ShardStat, 0, len(g.shards)+1)
	for i := range g.shards {
		acq, cont := g.shards[i].mu.Counts()
		out = append(out, ShardStat{"shadow", i, acq, cont})
	}
	acq, cont := c.appsMu.Counts()
	return append(out, ShardStat{"apps", 0, acq, cont})
}

// shardTelemetry sums a counter over every shard, including retired
// shadow-table generations (so the gauges stay monotonic across grows).
func (c *Controller) shardTelemetry(contended bool) int64 {
	var n int64
	for _, s := range c.ShardStats() {
		if contended {
			n += s.Contended
		} else {
			n += s.Acquisitions
		}
	}
	if contended {
		n += c.shadowRetiredCont.Load()
	} else {
		n += c.shadowRetiredAcq.Load()
	}
	return n
}

// now reads the (swappable, race-safe) lease clock.
func (c *Controller) now() time.Time {
	return (*c.clock.Load())()
}
