// Package kernel implements Trio's in-kernel access controller: it owns
// the shadow inode table, checks permissions, maps and unmaps inode core
// state into LibFSes, snapshots state at acquire for rollback, invokes
// the integrity verifier at ownership transfers, grants inode numbers and
// pages to applications, arbitrates the global rename lease (§4.6), and
// implements trust groups (§5.4).
//
// Every public entry point models a system call and charges the
// configured syscall cost. The kernel itself is trusted and always
// persists its own writes correctly; only LibFS behaviour is under test.
//
// The control plane is sharded (see shard.go): single-inode crossings
// run under a shared epoch plus a per-shard spinlock, multi-inode
// crossings drain the epoch exclusively.
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/hlock"
	"arckfs/internal/layout"
	"arckfs/internal/pmalloc"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/verifier"
)

// AppID identifies a registered application (a LibFS instance).
type AppID = int64

// Policy selects what the kernel does with an inode that fails
// verification (§2.1 step 8).
type Policy int

const (
	// PolicyRollback restores the inode's core state to the snapshot
	// taken when the releasing application acquired it.
	PolicyRollback Policy = iota
	// PolicyMarkInaccessible leaves the corrupt state in place but
	// refuses all future acquires of the inode.
	PolicyMarkInaccessible
)

// Options configures a controller.
type Options struct {
	// Mode selects the Original (Trio artifact) or Enhanced (ArckFS+)
	// verifier.
	Mode verifier.Mode
	// Policy is the corruption policy.
	Policy Policy
	// Cost is the latency model (nil = free).
	Cost *costmodel.Model
	// InodeCap is the inode table capacity (Format only).
	InodeCap uint64
	// NTails is the directory log tail count (Format only).
	NTails int
	// Span, when set, receives SpanEvRecoveryPass events while Mount
	// runs recovery, one per pass with its duration.
	Span telemetry.SpanSink
}

func (o *Options) fill() {
	if o.InodeCap == 0 {
		o.InodeCap = 1 << 16
	}
	if o.NTails == 0 {
		o.NTails = layout.DefaultTails
	}
}

// Stats counts kernel events. The fields are atomic so telemetry gauges
// can read them while operations are in flight; use Snapshot for a
// consistent copy.
type Stats struct {
	Syscalls       atomic.Int64 // every modeled kernel crossing
	Acquires       atomic.Int64
	Releases       atomic.Int64
	LeasedReleases atomic.Int64 // releases that left the mapping dormant
	Commits        atomic.Int64
	Verifications  atomic.Int64
	VerifyFailures atomic.Int64
	Rollbacks      atomic.Int64
	Involuntary    atomic.Int64
	TrustTransfers atomic.Int64
	EpochExclusive atomic.Int64 // crossings that drained the shared epoch
}

// Snapshot is a point-in-time copy of Stats.
type Snapshot struct {
	Syscalls       int64
	Acquires       int64
	Releases       int64
	LeasedReleases int64
	Commits        int64
	Verifications  int64
	VerifyFailures int64
	Rollbacks      int64
	Involuntary    int64
	TrustTransfers int64
	EpochExclusive int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Syscalls:       s.Syscalls.Load(),
		Acquires:       s.Acquires.Load(),
		Releases:       s.Releases.Load(),
		LeasedReleases: s.LeasedReleases.Load(),
		Commits:        s.Commits.Load(),
		Verifications:  s.Verifications.Load(),
		VerifyFailures: s.VerifyFailures.Load(),
		Rollbacks:      s.Rollbacks.Load(),
		Involuntary:    s.Involuntary.Load(),
		TrustTransfers: s.TrustTransfers.Load(),
		EpochExclusive: s.EpochExclusive.Load(),
	}
}

// page ownership encoding.
type pageOwner uint64

const (
	ownFree    = pageOwner(0)
	ownKindApp = pageOwner(1) << 62
	ownKindIno = pageOwner(2) << 62
	ownIDMask  = pageOwner(1)<<62 - 1
)

func ownApp(app AppID) pageOwner { return ownKindApp | pageOwner(app) }
func ownIno(ino uint64) pageOwner {
	return ownKindIno | pageOwner(ino)
}

// shadowEnt is the kernel's in-memory authoritative record for one inode;
// it is mirrored to the PM shadow table on every verified change. Except
// at mount time, it is accessed with its shard lock or the exclusive
// epoch held.
type shadowEnt struct {
	info verifier.ShadowInfo
	// mirrored full inode for shadow-table writes
	inode layout.Inode

	owner   AppID // 0 = kernel-held
	mapping *Mapping
	// groupMappings are concurrently valid mappings held by trust-group
	// peers (§5.4): within a group the kernel does not tear mappings
	// down on transfer, so no remap or rebuild is needed.
	groupMappings []*Mapping
	snap          *snapshot
	lease         time.Time
	// harvested lists the pages whose dirty bits a verification cleared
	// while the inode stayed mapped (a commit or a leased release). On
	// hardware that clears PTE dirty bits under a live mapping with no TLB
	// shootdown: the holder's TLB may still cache such a page as dirty and
	// store to it without setting the bit again. So each counts as dirty to
	// every verification until the unmap's shootdown ends those stores,
	// and then moves to reread (unmapped).
	harvested []uint64
	// reread lists the harvested pages whose mapping is gone: the next
	// verification reads each once, whatever its bit says. A successful
	// directory verification, having visited every page of the chain,
	// empties it.
	reread []uint64

	inaccessible bool
	// acl holds per-application permission overrides (SetACL); nil until
	// one is set. It lives here so an override dies with its inode.
	acl map[AppID]uint16
}

// snapshot is a held inode's rollback point and verification baseline:
// the view the kernel last verified (or parsed at a cold acquire), which
// the next verification diffs against as it is, and raw copies of the
// inode record and of the view's metadata pages (tail-set and log pages
// for a directory, map pages for a file).
type snapshot struct {
	// Exactly one of dir and file is set.
	dir  *verifier.DirView
	file *verifier.FileView
	raw  []byte
	// spare is the snapshot this one superseded, with its rollback bytes
	// gone to this one: the next verification parses into its view, and the
	// snapshot that verification makes is its struct (supersede).
	spare *snapshot
	// fv and inode are the storage of a new file's view and rollback bytes
	// (an empty file's are its inode record alone), so that its snapshot is
	// one object.
	fv    verifier.FileView
	inode [layout.InodeSize]byte
}

type app struct {
	id       AppID
	uid, gid uint32
	// group is the trust group (0 = none); atomic because acquire fast
	// paths read it without holding appsMu.
	group       atomic.Int32
	grantedInos map[uint64]bool

	// Quota state (quota.go). Limits are atomic so SetQuota can raise or
	// lower them while crossings are in flight; 0 means unlimited.
	maxPages  atomic.Int64
	maxInodes atomic.Int64
	// pagesOut counts outstanding granted pages: charged at GrantPages,
	// uncharged when a page is adopted by a committed inode, returned, or
	// reclaimed at unregister. It also lets UnregisterApp skip the
	// device-wide page-owner scan for tenants that never held a page.
	pagesOut atomic.Int64
}

// Mapping is a LibFS's handle on an inode's mapped core state. The
// kernel revokes it on release or involuntary reclaim; any LibFS access
// through a revoked mapping is the simulated SIGBUS of §4.3.
type Mapping struct {
	ino uint64
	app AppID
	// ok is atomic rather than lock-protected: Valid sits on the
	// lock-free read path (readAt -> checkMapped), where a spinlock —
	// even uncontended — would put a blocking acquisition inside every
	// RCU-pinned section and stall writers' grace periods for nothing.
	// Revocation needs no stronger ordering than the Store/Load pair:
	// a reader that loads true just before revoke flips it is the same
	// reader that raced the revocation under the old lock.
	ok atomic.Bool
	// dormant marks a mapping whose holder voluntarily released the
	// inode under a grant lease (XferLease): the kernel keeps the
	// mapping established but may reclaim it at any time. The flag is
	// the handoff point — whichever side wins the CAS (the LibFS
	// re-activating, or the kernel reclaiming for another app) owns the
	// mapping's fate.
	dormant atomic.Bool
	// held marks a mapping an AcquireBatch prefetched. While it is dormant,
	// held and within its lease, acquires from outside its app's trust
	// group meet it as if its app had acquired it actively (prefetchHeld).
	// The LibFS clears it when its hold ends (EndHold), the kernel when the
	// mapping is lease-released.
	held atomic.Bool
}

// Ino returns the mapped inode number.
func (m *Mapping) Ino() uint64 { return m.ino }

// Valid reports whether the mapping is still established (a nil mapping
// never was).
func (m *Mapping) Valid() bool {
	return m != nil && m.ok.Load()
}

// newMapping returns an established mapping for app on ino.
func newMapping(ino uint64, app AppID) *Mapping {
	m := &Mapping{ino: ino, app: app}
	m.ok.Store(true)
	return m
}

// Reactivate attempts to take a dormant mapping back into active use
// without a kernel crossing — the LibFS side of the grant-lease handoff.
// It returns false if the mapping was not dormant or the kernel revoked
// it first (the caller must fall back to a real Acquire).
func (m *Mapping) Reactivate() bool {
	if m == nil || !m.dormant.CompareAndSwap(true, false) {
		return false
	}
	// Won the CAS: the kernel will no longer reclaim this mapping, but
	// it may already have been revoked (UnregisterApp, deletion by a
	// trust-group peer) before we got here.
	return m.Valid()
}

// EndHold makes a prefetched mapping its app never reactivated an ordinary
// dormant lease, which any other application's acquire may reclaim: the
// LibFS side of the end of a hold, like Reactivate a store to the
// mapping's shared word and no crossing. A nil or unprefetched mapping is
// left as it is.
func (m *Mapping) EndHold() {
	if m != nil {
		m.held.Store(false)
	}
}

func (m *Mapping) revoke() {
	m.ok.Store(false)
}

type clockFn func() time.Time

// Controller is the in-kernel access controller.
type Controller struct {
	dev  *pmem.Device
	geo  layout.Geometry
	cost *costmodel.Model
	opts Options

	alloc *pmalloc.Allocator
	ver   *verifier.V

	// epoch is the big-reader lock over the sharded state: shared for
	// single-inode crossings, exclusive for multi-inode ones (shard.go).
	epoch hlock.BRLock
	// shadow is the shadow-inode table, striped by inode number.
	shadow [nShadow]shadowShard
	// pages holds one pageOwner word per device page, accessed only
	// through pageOwnerAt/setPageOwner/casPageOwner (atomics).
	pages []uint64

	// appsMu guards the app table, grantedInos sets, the inode free
	// list, and the id counters.
	appsMu    hlock.CountedSpin
	apps      map[AppID]*app
	nextApp   AppID
	inoFree   []uint64
	nextGroup int

	renameLock hlock.LeaseLock
	queues     sync.Pool // of *persistQ

	// clock is a swappable test hook for lease expiry, read without the
	// epoch held.
	clock atomic.Pointer[clockFn]

	Stats Stats
}

// persistQ is one crossing's writes: the lines they dirty and the pages and
// inode numbers they free. persist fences the lines once — until then the
// crossing's records (each assumed atomic) are unordered — and only then
// frees the rest. The crossing's epoch hold: exclusive (excl), shared
// (slot+1 in shared) or none.
type persistQ struct {
	*pmem.Batch
	pages, inos []uint64
	excl        bool
	shared      int
	// kv is the view the crossing's verification in progress reads
	// through: as a pointer into the pooled queue, the verifier's
	// KernelView costs no allocation.
	kv ctlView
}

// crossing takes a recycled queue and, with excl, the exclusive epoch.
func (c *Controller) crossing(excl bool) *persistQ {
	q := c.queues.Get().(*persistQ)
	if q.excl = excl; excl {
		c.enterExcl()
	}
	return q
}

func (c *Controller) persist(q *persistQ) {
	q.Commit()
	c.alloc.Free(q.pages...)
	if len(q.inos) > 0 {
		c.appsMu.Lock()
		c.inoFree = append(c.inoFree, q.inos...)
		c.appsMu.Unlock()
	}
	q.pages, q.inos = q.pages[:0], q.inos[:0]
}

// commit ends a crossing: persist, leave the epoch, recycle q.
func (c *Controller) commit(q *persistQ) {
	c.persist(q)
	c.leaveEpoch(q)
	q.kv = ctlView{}
	c.queues.Put(q)
}

func (c *Controller) leaveEpoch(q *persistQ) {
	if q.excl {
		c.exitExcl()
	} else if q.shared > 0 {
		c.epoch.RUnlock(q.shared - 1)
	}
	q.excl, q.shared = false, 0
}

// Format writes a fresh file system and returns its controller.
func Format(dev *pmem.Device, opts Options) (*Controller, error) {
	opts.fill()
	g, err := layout.Mkfs(dev, opts.InodeCap, opts.NTails)
	if err != nil {
		return nil, err
	}
	c := newController(dev, g, opts)

	// Root shadow.
	rootIn, _, _ := layout.ReadInode(dev, g, layout.RootIno)
	c.shardOf(layout.RootIno).m[layout.RootIno] = &shadowEnt{
		info:  shadowInfoOf(layout.RootIno, &rootIn, 0, true),
		inode: rootIn,
	}
	// Page ownership: everything below DataStart is reserved; the root
	// tail-set belongs to the root inode and is excluded from the free
	// pool.
	c.alloc = pmalloc.NewExcluding(g, rootIn.DataRoot)
	c.setPageOwner(rootIn.DataRoot, ownIno(layout.RootIno))
	// Inode free list (descending so grants ascend).
	for ino := g.InodeCap - 1; ino >= 2; ino-- {
		c.inoFree = append(c.inoFree, ino)
	}
	return c, nil
}

func newController(dev *pmem.Device, g layout.Geometry, opts Options) *Controller {
	c := &Controller{
		dev:   dev,
		geo:   g,
		cost:  opts.Cost,
		opts:  opts,
		pages: make([]uint64, g.PageCount),
		apps:  make(map[AppID]*app),
	}
	for i := range c.shadow {
		c.shadow[i].m = make(map[uint64]*shadowEnt)
	}
	c.queues.New = func() any { return &persistQ{Batch: dev.NewBatch()} }
	now := clockFn(time.Now)
	c.clock.Store(&now)
	c.ver = &verifier.V{Mode: opts.Mode, Dev: dev, Geo: g, Cost: opts.Cost}
	return c
}

// syscall counts and charges one kernel crossing. Which application made
// it is the caller's to count (libfs.Stats.Syscalls).
func (c *Controller) syscall() {
	c.Stats.Syscalls.Add(1)
	c.cost.Syscall()
}

// VerifierStats exposes the verifier's work counters.
func (c *Controller) VerifierStats() *verifier.Stats { return &c.ver.Stats }

// RegisterTelemetry exposes the controller's and verifier's counters in
// set under the "kernel." and "verifier." namespaces.
func (c *Controller) RegisterTelemetry(set *telemetry.Set) {
	set.Gauge("kernel.syscalls", c.Stats.Syscalls.Load)
	set.Gauge("kernel.acquires", c.Stats.Acquires.Load)
	set.Gauge("kernel.releases", c.Stats.Releases.Load)
	set.Gauge("kernel.leased_releases", c.Stats.LeasedReleases.Load)
	set.Gauge("kernel.commits", c.Stats.Commits.Load)
	set.Gauge("kernel.verifications", c.Stats.Verifications.Load)
	set.Gauge("kernel.verify_failures", c.Stats.VerifyFailures.Load)
	set.Gauge("kernel.rollbacks", c.Stats.Rollbacks.Load)
	set.Gauge("kernel.involuntary_releases", c.Stats.Involuntary.Load)
	set.Gauge("kernel.trust_transfers", c.Stats.TrustTransfers.Load)
	set.Gauge("kernel.epoch_exclusive", c.Stats.EpochExclusive.Load)
	set.Gauge("kernel.shard.acquisitions", func() int64 { return c.shardTelemetry(false) })
	set.Gauge("kernel.shard.contended", func() int64 { return c.shardTelemetry(true) })
	// One steal counter; its key says "local" because benchmark/ reads it
	// by that name.
	set.Gauge("pmalloc.steals.local", func() int64 { return c.alloc.Steals() })
	set.Gauge("verifier.dentries", c.ver.Stats.Dentries.Load)
	set.Gauge("verifier.pages", c.ver.Stats.Pages.Load)
	set.Gauge("verifier.pages_clean", c.ver.Stats.PagesClean.Load)
}

func shadowInfoOf(ino uint64, in *layout.Inode, childCount uint32, committed bool) verifier.ShadowInfo {
	return verifier.ShadowInfo{
		Ino: ino, Type: in.Type, Perm: in.Perm, UID: in.UID, GID: in.GID,
		Parent: in.Parent, ChildCount: childCount, Committed: committed,
		DataRoot: in.DataRoot, NTails: in.NTails,
	}
}

// Geometry returns the mounted geometry.
func (c *Controller) Geometry() layout.Geometry { return c.geo }

// Device returns the underlying device.
func (c *Controller) Device() *pmem.Device { return c.dev }

// Mode returns the verifier mode.
func (c *Controller) Mode() verifier.Mode { return c.opts.Mode }

// SetClock overrides the lease clock (tests).
func (c *Controller) SetClock(now func() time.Time) {
	fn := clockFn(now)
	c.clock.Store(&fn)
	c.renameLock.SetClock(now)
}

// RegisterApp creates an application identity.
func (c *Controller) RegisterApp(uid, gid uint32) AppID {
	c.syscall()
	e := c.epoch.RLock()
	c.appsMu.Lock()
	c.nextApp++
	id := c.nextApp
	c.apps[id] = &app{id: id, uid: uid, gid: gid, grantedInos: make(map[uint64]bool)}
	c.appsMu.Unlock()
	c.epoch.RUnlock(e)
	return id
}

// UnregisterApp retires an application identity: every inode it still
// holds is force-released (verified and returned to the kernel), a rename
// lease it holds is released, its unused inode grants go back to the free
// pool, any still-granted pages are reclaimed, and its app row is
// dropped. Idle tenants — no held inodes, no outstanding pages —
// unregister without touching the shadow or page tables beyond the app
// row itself.
func (c *Controller) UnregisterApp(appID AppID) error {
	c.syscall()
	a := c.lookupApp(appID)
	if a == nil {
		return fmt.Errorf("kernel: unknown app %d", appID)
	}
	q := c.crossing(true)
	defer c.commit(q)
	// Force-release everything the app still owns. releaseHeld verifies
	// the holder's state, exactly as an involuntary lease reclaim would.
	var held []*shadowEnt
	c.shadowRange(func(ino uint64, se *shadowEnt) {
		if se.owner == appID {
			held = append(held, se)
		}
	})
	for _, se := range held {
		c.Stats.Involuntary.Add(1)
		if err := c.releaseHeld(se, appID, ctlView{c: c, q: q}); err != nil && !IsVerificationError(err) {
			return err
		}
	}
	// Unused inode grants go back to the free pool.
	c.appsMu.Lock()
	for ino := range a.grantedInos {
		c.inoFree = append(c.inoFree, ino)
	}
	delete(c.apps, appID)
	c.appsMu.Unlock()
	c.renameLock.Release(appID)
	// Reclaim granted pages. The scan is device-wide, so skip it for the
	// common idle-tenant retire (pagesOut == 0 means no page the app was
	// granted is still app-owned).
	if a.pagesOut.Load() > 0 {
		for p := range c.pages {
			if c.casPageOwner(uint64(p), ownApp(appID), ownFree) {
				q.pages = append(q.pages, uint64(p))
			}
		}
	}
	return nil
}

// NewTrustGroup places the given applications in a fresh trust group:
// inode ownership moves among them without verification (§5.4).
func (c *Controller) NewTrustGroup(ids ...AppID) (int, error) {
	c.syscall()
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	c.appsMu.Lock()
	defer c.appsMu.Unlock()
	c.nextGroup++
	for _, id := range ids {
		a, ok := c.apps[id]
		if !ok {
			return 0, fmt.Errorf("kernel: unknown app %d", id)
		}
		a.group.Store(int32(c.nextGroup))
	}
	return c.nextGroup, nil
}

// GrantInodes hands n fresh inode numbers to app; the LibFS builds new
// files and directories in them without further system calls.
func (c *Controller) GrantInodes(appID AppID, n int) ([]uint64, error) {
	c.syscall()
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	c.appsMu.Lock()
	defer c.appsMu.Unlock()
	a, ok := c.apps[appID]
	if !ok {
		return nil, fmt.Errorf("kernel: unknown app %d", appID)
	}
	if max := a.maxInodes.Load(); max > 0 && int64(len(a.grantedInos)+n) > max {
		return nil, fmt.Errorf("app %d: %d inode grants outstanding, +%d exceeds quota %d: %w",
			appID, len(a.grantedInos), n, max, ErrQuota)
	}
	if len(c.inoFree) < n {
		return nil, fsapi.ErrNoSpace
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		ino := c.inoFree[len(c.inoFree)-1]
		c.inoFree = c.inoFree[:len(c.inoFree)-1]
		a.grantedInos[ino] = true
		out[i] = ino
	}
	return out, nil
}

// GrantPages hands n free pages to app, charging them against the app's
// outstanding-page quota.
func (c *Controller) GrantPages(appID AppID, cpu, n int) ([]uint64, error) {
	c.syscall()
	a := c.lookupApp(appID)
	if a == nil {
		return nil, fmt.Errorf("kernel: unknown app %d", appID)
	}
	if err := a.chargePages(n); err != nil {
		return nil, err
	}
	pages, err := c.alloc.AllocBatch(cpu, n)
	if err != nil {
		a.pagesOut.Add(-int64(n))
		return nil, fsapi.ErrNoSpace
	}
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	if c.lookupApp(appID) == nil {
		a.pagesOut.Add(-int64(n))
		c.alloc.Free(pages...)
		return nil, fmt.Errorf("kernel: unknown app %d", appID)
	}
	for _, p := range pages {
		c.setPageOwner(p, ownApp(appID))
	}
	return pages, nil
}

// ReturnPages gives unused granted pages back (LibFS teardown),
// uncharging them from the app's outstanding-page quota.
func (c *Controller) ReturnPages(appID AppID, pages []uint64) {
	c.syscall()
	e := c.epoch.RLock()
	var back []uint64
	for _, p := range pages {
		if c.casPageOwner(p, ownApp(appID), ownFree) {
			back = append(back, p)
		}
	}
	c.epoch.RUnlock(e)
	if len(back) > 0 {
		if a := c.lookupApp(appID); a != nil {
			a.pagesOut.Add(-int64(len(back)))
		}
		c.alloc.Free(back...)
	}
}

// RenameLockAcquire takes the global rename lease for app (§4.6 patch),
// waiting while another app holds it. An unregistered app is refused.
func (c *Controller) RenameLockAcquire(appID AppID) error {
	c.syscall()
	if c.lookupApp(appID) == nil {
		return fmt.Errorf("kernel: unknown app %d", appID)
	}
	c.renameLock.Acquire(appID, renameLeaseTTL)
	return nil
}

// RenameLockRelease returns the lease; false means it had expired and
// been stolen.
func (c *Controller) RenameLockRelease(appID AppID) bool {
	c.syscall()
	return c.renameLock.Release(appID)
}

// SetACL overrides app's permission bits on ino (layout.PermRead |
// layout.PermWrite). The §3.1 attack scenario uses this to deny App1
// write access on specific inodes. The override lives in the inode's
// shadow entry and is freed with it; on an inode that has no shadow entry
// SetACL is a no-op. Like every other entry point it models (and charges)
// a kernel crossing.
func (c *Controller) SetACL(ino uint64, appID AppID, perm uint16) {
	c.syscall()
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	sh := c.lockShard(ino, nil)
	defer sh.mu.Unlock()
	se := sh.m[ino]
	if se == nil {
		return
	}
	// A dormant (lease-released) holder must not re-activate across a
	// permission change: reclaim its mapping so the next access pays a
	// full, ACL-checked Acquire.
	if se.owner != 0 {
		c.reclaimDormant(se, false)
	}
	if se.acl == nil {
		se.acl = make(map[AppID]uint16)
	}
	se.acl[appID] = perm
}

// FreeCount exposes allocator occupancy for tests.
func (c *Controller) FreeCount() int { return c.alloc.FreeCount() }

// ShadowOf returns a copy of ino's shadow info (tests and tools).
func (c *Controller) ShadowOf(ino uint64) (verifier.ShadowInfo, bool) {
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	se := c.shadowGet(ino, nil)
	if se == nil {
		return verifier.ShadowInfo{}, false
	}
	return se.info, true
}

// OwnerOf returns the app currently holding ino (0 = kernel). A dormant
// holder — one that lease-released the inode — reports as 0: the kernel
// may reclaim the inode at any time, so it is kernel-held for every
// observer but the lease holder itself.
func (c *Controller) OwnerOf(ino uint64) AppID {
	e := c.epoch.RLock()
	defer c.epoch.RUnlock(e)
	sh := c.lockShard(ino, nil)
	defer sh.mu.Unlock()
	if se := sh.m[ino]; se != nil {
		if se.mapping != nil && se.mapping.dormant.Load() {
			return 0
		}
		return se.owner
	}
	return 0
}

// errBusy wraps fsapi.ErrBusy with holder context.
func errBusy(ino uint64, holder AppID) error {
	return fmt.Errorf("inode %d held by app %d: %w", ino, holder, fsapi.ErrBusy)
}

// IsVerificationError reports whether err is a verifier rejection.
func IsVerificationError(err error) bool {
	var fe *verifier.FailError
	return errors.As(err, &fe)
}
