// Package libfs implements the ArckFS library file system: the
// per-application userspace component of the Trio architecture. All data
// and metadata operations run in userspace against mapped core state in
// persistent memory, guided by auxiliary DRAM indexes; the kernel is
// involved only for inode ownership transfers and resource grants.
//
// The package implements both the file system as shipped in the Trio
// artifact (ArckFS) and the patched ArckFS+ of the paper. The six bugs of
// Table 1 are individually toggleable through the Bugs bit-set, and the
// Hooks structure exposes the exact race windows the paper instruments
// with sleep() calls, so every bug is reproducible deterministically.
package libfs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/hlock"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/rcu"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// Bugs selects which of the paper's Table-1 bugs are present.
type Bugs uint32

const (
	// BugRenameVerify (§4.1): the LibFS does not follow Rules (2) and
	// (3) for directory relocation — no commits of the new parent, no
	// global rename lock. (The matching verifier half is selected by
	// formatting the kernel with verifier.Original.)
	BugRenameVerify Bugs = 1 << iota
	// BugMissingFence (§4.2): the memory fence between persisting a new
	// dentry's body and persisting its commit marker is omitted.
	BugMissingFence
	// BugReleaseUnsync (§4.3): voluntary inode release does not
	// synchronize with concurrent operations; other threads can
	// dereference the unmapped core state.
	BugReleaseUnsync
	// BugAuxCoreRace (§4.4): the bucket-lock critical section covers only
	// the auxiliary-state update; the persistent update happens outside
	// it.
	BugAuxCoreRace
	// BugLocklessBucketRead (§4.5): directory readers traverse hash
	// buckets with no lock and no RCU protection.
	BugLocklessBucketRead
	// BugNoCycleCheck (§4.6): no global rename lock and no
	// descendant check on directory renames.
	BugNoCycleCheck
	// BugReserveLenUnflushed reproduces the reservation persistence hole
	// arcklint found in this reproduction's own tree (PR 3): reserveDentry
	// stores the reserved record length but does not queue its write-back,
	// so when the auxiliary insert fails (duplicate name) the dead slot's
	// length can read back as 0 after a crash, and layout.ScanTail treats
	// a zero length as the append frontier — hiding every later record in
	// the page, including entries the kernel had already verified. The
	// flag exists so the crashmc dynamic checker can re-discover the hole
	// from its configuration alone; it is NOT part of BugsAll because it
	// is a reproduction bug (fixed unconditionally in PR 3), not one of
	// the paper's Table-1 artifact bugs. Only meaningful together with
	// BugAuxCoreRace, which enables the reserve/fill create path.
	BugReserveLenUnflushed

	// BugsAll is ArckFS exactly as the artifact shipped.
	BugsAll = BugRenameVerify | BugMissingFence | BugReleaseUnsync |
		BugAuxCoreRace | BugLocklessBucketRead | BugNoCycleCheck
	// BugsNone is ArckFS+.
	BugsNone Bugs = 0
)

// Has reports whether bug b is enabled.
func (bs Bugs) Has(b Bugs) bool { return bs&b != 0 }

// Hooks are deterministic stand-ins for the sleep() calls the paper
// inserts to widen race windows. All are optional.
type Hooks struct {
	// CreateBetweenAuxAndCore runs in the §4.4 window: after the
	// auxiliary hash-table insert, before the persistent dentry append
	// (only reachable with BugAuxCoreRace).
	CreateBetweenAuxAndCore func()
	// DirWriteInProgress runs during a directory write, after the
	// mapping check and before the persistent append — the §4.3 window.
	DirWriteInProgress func()
	// RenameAfterCheck runs after a rename's checks and resolution,
	// before the persistent moves — the §4.6 window.
	RenameAfterCheck func()
	// BucketTraverse is forwarded to every directory hash table — the
	// §4.5 window.
	BucketTraverse func()
	// CreateBeforeMarkerFence runs after the commit marker's flush has
	// been issued but before the operation's final fence — the §4.2
	// crash window. A test can capture a crash image here: under
	// BugMissingFence the dentry body is still unfenced at this point,
	// so the marker may persist without it.
	CreateBeforeMarkerFence func()
	// FileReadBlock runs in the file read path after a block pointer has
	// been loaded from the published index, before its page is copied —
	// the data-plane reclamation window: a truncate or unlink that
	// unpublishes the block here must not let the page be reused until
	// the reader leaves its read-side section. The reclamation stress
	// test widens the window with it.
	FileReadBlock func()
	// DirCompaction brackets a release-time dentry-log compaction: it
	// runs with true before the new chains are written and with false once
	// the old pages are retired. The persist schedule in between is the
	// LibFS's own — the only part of a release that is — so the crash
	// checkers use the bracket to observe fences they otherwise skip as
	// kernel protocol.
	DirCompaction func(begin bool)
}

// Options configures a LibFS instance.
type Options struct {
	Bugs  Bugs
	Cost  *costmodel.Model
	Hooks *Hooks
	// GrantInoBatch and GrantPageBatch size the resource-grant syscalls.
	GrantInoBatch  int
	GrantPageBatch int
	// DirBuckets is the initial bucket count of directory hash tables.
	DirBuckets int
	// StrictUAF makes the §4.5 buggy reader fault immediately on a
	// recycled entry (the paper's instrumented build); off, it retries
	// as the un-instrumented artifact effectively does.
	StrictUAF bool
}

func (o *Options) fill() {
	if o.GrantInoBatch == 0 {
		o.GrantInoBatch = 256
	}
	if o.GrantPageBatch == 0 {
		o.GrantPageBatch = 512
	}
	if o.DirBuckets == 0 {
		o.DirBuckets = 16
	}
	if o.Hooks == nil {
		o.Hooks = &Hooks{}
	}
}

// FS is one application's library file system.
type FS struct {
	ctrl *kernel.Controller
	dev  *pmem.Device
	geo  layout.Geometry
	app  kernel.AppID
	opts Options
	dom  *rcu.Domain

	mtab sync.Map // ino -> *minode
	// ws is what the first lease miss of a hold takes back (takeBack).
	ws workingSet

	// renameMu serializes this LibFS's cross-directory directory renames
	// (see Rename).
	renameMu sync.Mutex

	inoMu   hlock.SpinLock
	inoPool []uint64

	pageMu   [8]hlock.SpinLock
	pagePool [8][]uint64
	// pageReserve is the page half of the grant lease: each refill
	// over-grants and parks the surplus here, so the next dry stripe
	// restocks without a crossing. Guarded by the stripe's pageMu.
	pageReserve    [8][]uint64
	pageReserveExp [8]time.Time

	nthreads atomic.Int64
	clock    atomic.Uint64 // logical mtime source

	// Stats counts the LibFS's recovery-path events (telemetry only).
	Stats Stats

	// tel is the owning system's counter set (set by core.NewApp).
	tel *telemetry.Set

	// tracer and appRow are the arcktrace observability hooks, attached by
	// SetObservability (see span.go). Both may be nil.
	tracer *span.Tracer
	appRow *telemetry.AppRow
	// relMu runs ReleaseAll calls one at a time; relLane is their lane in
	// the tracer, made on first traced use.
	relMu   sync.Mutex
	relLane *span.Local
}

// Stats counts LibFS events of interest to telemetry: remaps after an
// involuntary revocation (§4.3 patched path), re-acquisitions of
// voluntarily released inodes whose lease the kernel reclaimed, and the
// grant-lease outcomes. A LeaseHit is a kernel crossing that did not
// happen — a dormant mapping reactivated in place, or a page taken from
// the pre-granted reserve — and every hit also increments
// SyscallsAvoided. A LeaseMiss found the lease gone; an inode's miss is
// then a Reacquire, through a crossing or through a mapping a batch
// prefetched, and the latter is the one place the two counters diverge:
// it avoided a crossing without a hit.
type Stats struct {
	Remaps          atomic.Int64
	Reacquires      atomic.Int64
	LeaseHits       atomic.Int64
	LeaseMisses     atomic.Int64
	SyscallsAvoided atomic.Int64
	// StaleReads counts read-path touches of a released inode that a
	// peer actively held: served from the retained last-verified aux
	// because a read cannot steal ownership from a live holder.
	StaleReads atomic.Int64
	// DirCompactions counts release-time dentry-log rewrites (compact.go)
	// and DirCompactedSlots the dead record slots they dropped.
	DirCompactions    atomic.Int64
	DirCompactedSlots atomic.Int64
}

// SetTelemetry attaches the owning system's counter set (core.NewApp
// wires this); Telemetry returns it, nil if the FS was built without a
// system.
func (fs *FS) SetTelemetry(tel *telemetry.Set) { fs.tel = tel }

// Telemetry returns the owning system's counter set, or nil.
func (fs *FS) Telemetry() *telemetry.Set { return fs.tel }

// New attaches a LibFS for a registered application.
func New(ctrl *kernel.Controller, app kernel.AppID, opts Options) *FS {
	opts.fill()
	return &FS{
		ctrl: ctrl,
		dev:  ctrl.Device(),
		geo:  ctrl.Geometry(),
		app:  app,
		opts: opts,
		dom:  rcu.NewDomain(),
	}
}

// App returns the kernel application id.
func (fs *FS) App() kernel.AppID { return fs.app }

// Name implements fsapi.FS.
func (fs *FS) Name() string {
	if fs.opts.Bugs == BugsNone {
		return "arckfs+"
	}
	return "arckfs"
}

// Bugs returns the configured bug set.
func (fs *FS) Bugs() Bugs { return fs.opts.Bugs }

// Domain exposes the RCU domain (tests, telemetry).
func (fs *FS) Domain() *rcu.Domain { return fs.dom }

func (fs *FS) now() uint64 { return fs.clock.Add(1) }

// --- Resource pools --------------------------------------------------------

// allocIno takes an inode number from the granted pool, refilling via a
// kernel grant when empty. t (nil-tolerated) attributes the refill
// crossing to the operation's span.
func (fs *FS) allocIno(t *Thread) (uint64, error) {
	fs.inoMu.Lock()
	if len(fs.inoPool) == 0 {
		fs.inoMu.Unlock()
		begin := t.crossStart()
		batch, err := fs.ctrl.GrantInodes(fs.app, fs.opts.GrantInoBatch)
		t.crossEnd(telemetry.EvGrantInodes, begin)
		if err != nil && fs.reclaimRetired() {
			// Retired inode numbers may be parked behind a grace period;
			// as in allocPage, drain the retire queue on the failure path
			// only and retry before reporting exhaustion.
			fs.inoMu.Lock()
			if len(fs.inoPool) > 0 {
				ino := fs.inoPool[len(fs.inoPool)-1]
				fs.inoPool = fs.inoPool[:len(fs.inoPool)-1]
				fs.inoMu.Unlock()
				return ino, nil
			}
			fs.inoMu.Unlock()
			begin = t.crossStart()
			batch, err = fs.ctrl.GrantInodes(fs.app, fs.opts.GrantInoBatch)
			t.crossEnd(telemetry.EvGrantInodes, begin)
		}
		if err != nil {
			return 0, err
		}
		fs.inoMu.Lock()
		fs.inoPool = append(fs.inoPool, batch...)
	}
	ino := fs.inoPool[len(fs.inoPool)-1]
	fs.inoPool = fs.inoPool[:len(fs.inoPool)-1]
	fs.inoMu.Unlock()
	return ino, nil
}

// recycleIno returns a never-committed inode number to the pool.
func (fs *FS) recycleIno(ino uint64) {
	fs.inoMu.Lock()
	fs.inoPool = append(fs.inoPool, ino)
	fs.inoMu.Unlock()
}

// pageReserveTTL bounds how long a parked page reserve still counts as
// "recently granted" for lease accounting. Consuming an expired reserve
// is still legal (the pages remain granted to this app); it just counts
// as a miss instead of a hit.
const pageReserveTTL = 2 * time.Second

// Reserve-pressure thresholds: the fraction of device pages still free
// below which the lease reserve stops being cheap insurance and starts
// starving other tenants. Below reservePressureLow the parked reserve's
// TTL halves; below reservePressureHigh it drops to a quarter second and
// refills stop over-granting entirely, so a tenant population that
// collectively parked most of the device drains its reserves back to
// the allocator instead of holding them while grants fail elsewhere.
const (
	reservePressureLow  = 0.25
	reservePressureHigh = 0.10
)

// reserveTTL adapts the parked-reserve lifetime to allocator pressure.
// Consulted only on the refill crossing (once per GrantPageBatch pages),
// so the FreePageFraction read costs nothing on the alloc fast path.
func (fs *FS) reserveTTL() time.Duration {
	switch frac := fs.ctrl.FreePageFraction(); {
	case frac < reservePressureHigh:
		return pageReserveTTL / 8
	case frac < reservePressureLow:
		return pageReserveTTL / 2
	}
	return pageReserveTTL
}

// allocPage takes a granted page, refilling from the kernel when the
// stripe runs dry. A dry stripe first consumes its reserve — pages the
// kernel already granted on a previous crossing — so the refill costs no
// syscall; only when both pool and reserve are empty
// does the stripe cross, over-granting to restock both halves.
func (fs *FS) allocPage(t *Thread, cpu int) (uint64, error) {
	s := uint(cpu) % 8
	fs.pageMu[s].Lock()
	if len(fs.pagePool[s]) == 0 && len(fs.pageReserve[s]) > 0 {
		fs.pagePool[s] = fs.pageReserve[s]
		fs.pageReserve[s] = nil
		if time.Now().Before(fs.pageReserveExp[s]) {
			fs.Stats.LeaseHits.Add(1)
			fs.Stats.SyscallsAvoided.Add(1)
			t.spanEv(telemetry.SpanEvLeaseHit, 0, 0)
		} else {
			fs.Stats.LeaseMisses.Add(1)
			t.spanEv(telemetry.SpanEvLeaseMiss, 0, 0)
		}
	}
	if len(fs.pagePool[s]) == 0 {
		fs.pageMu[s].Unlock()
		batch, reserve, err := fs.grantPageBatch(t, cpu)
		if err != nil && fs.reclaimRetired() {
			// The device may look exhausted only because retired pages
			// are parked behind a grace period: drain the retire queue,
			// retry the pool, and only then re-try the kernel. This wait
			// must stay on the failure path — a pinned reader parked in a
			// test hook can be blocked on this very writer's progress, so
			// waiting for grace on every dry stripe would deadlock the
			// deterministic interleaving tests.
			fs.pageMu[s].Lock()
			if n := len(fs.pagePool[s]); n > 0 {
				p := fs.pagePool[s][n-1]
				fs.pagePool[s] = fs.pagePool[s][:n-1]
				fs.pageMu[s].Unlock()
				return p, nil
			}
			fs.pageMu[s].Unlock()
			batch, reserve, err = fs.grantPageBatch(t, cpu)
		}
		if err != nil {
			return 0, err
		}
		fs.pageMu[s].Lock()
		fs.pagePool[s] = append(fs.pagePool[s], batch...)
		if len(reserve) > 0 {
			if len(fs.pageReserve[s]) == 0 {
				fs.pageReserve[s] = reserve
				fs.pageReserveExp[s] = time.Now().Add(fs.reserveTTL())
			} else {
				// A racing refill already parked a reserve; ours goes
				// straight to the pool.
				fs.pagePool[s] = append(fs.pagePool[s], reserve...)
			}
		}
	}
	p := fs.pagePool[s][len(fs.pagePool[s])-1]
	fs.pagePool[s] = fs.pagePool[s][:len(fs.pagePool[s])-1]
	fs.pageMu[s].Unlock()
	return p, nil
}

// grantPageBatch performs the kernel page-grant crossing. It asks for
// double the batch and splits the result into an immediate pool
// and a parked reserve; when the double grant fails (a small device near
// capacity) it falls back to a plain single grant so leases never turn a
// satisfiable allocation into ENOSPC. Under high allocator pressure
// (free fraction below reservePressureHigh) the over-grant is skipped
// up front: hoarding a reserve while other tenants' grants fail is the
// wrong trade, and skipping saves the doomed double-grant crossing.
func (fs *FS) grantPageBatch(t *Thread, cpu int) (pool, reserve []uint64, err error) {
	n := fs.opts.GrantPageBatch
	if fs.ctrl.FreePageFraction() >= reservePressureHigh {
		begin := t.crossStart()
		batch, err := fs.ctrl.GrantPages(fs.app, cpu, 2*n)
		t.crossEnd(telemetry.EvGrantPages, begin)
		if err == nil {
			return batch[:n], batch[n:], nil
		}
	}
	begin := t.crossStart()
	batch, err := fs.ctrl.GrantPages(fs.app, cpu, n)
	t.crossEnd(telemetry.EvGrantPages, begin)
	if err != nil {
		return nil, nil, err
	}
	return batch, nil, nil
}

// ReturnGrants hands every pooled page — the allocator stripes and the
// parked lease reserves — back to the kernel in one crossing. The
// tenancy registry calls it when retiring a tenant, so a departed app's
// unused grants rejoin the global allocator immediately instead of
// being swept up by UnregisterApp's ownership scan. Unused inode-number
// grants are reclaimed by UnregisterApp itself.
func (fs *FS) ReturnGrants() {
	var pages []uint64
	for s := range fs.pagePool {
		fs.pageMu[s].Lock()
		pages = append(pages, fs.pagePool[s]...)
		pages = append(pages, fs.pageReserve[s]...)
		fs.pagePool[s] = nil
		fs.pageReserve[s] = nil
		fs.pageMu[s].Unlock()
	}
	if len(pages) > 0 {
		fs.ctrl.ReturnPages(fs.app, pages)
	}
}

// recyclePages returns never-verified pages to the pool.
func (fs *FS) recyclePages(cpu int, pages []uint64) {
	if len(pages) == 0 {
		return
	}
	s := uint(cpu) % 8
	fs.pageMu[s].Lock()
	fs.pagePool[s] = append(fs.pagePool[s], pages...)
	fs.pageMu[s].Unlock()
}

// retiree is what an unlink, an rmdir or a shrinking truncate leaves
// behind of a never-committed inode: pages a writer has just unpublished
// and, when the inode itself went, its number (0 otherwise). A reader
// inside an RCU read-side section may still hold a block pointer it loaded
// before the unpublish, or be acting on the stale minode, so reuse waits
// out a grace period through the FS's domain — the same retire path htable
// uses for unlinked bucket entries. One object carries both, pages first:
// the order the allocator pools see them in is the order they hand them
// out again.
type retiree struct {
	fs    *FS
	cpu   int
	pages []uint64
	ino   uint64
}

// Reclaim runs after the grace period (rcu.Reclaimer).
func (r *retiree) Reclaim() {
	r.fs.recyclePages(r.cpu, r.pages)
	if r.ino != 0 {
		r.fs.recycleIno(r.ino)
	}
}

// retire queues pages, which it keeps, and ino (0 for none) for reuse
// after a grace period.
func (fs *FS) retire(cpu int, pages []uint64, ino uint64) {
	if len(pages) == 0 && ino == 0 {
		return
	}
	fs.dom.Retire(&retiree{fs: fs, cpu: cpu, pages: pages, ino: ino})
}

// reclaimRetired drains the retire queue — including callbacks an
// in-flight background grace period has already reaped but not yet run —
// so a failed kernel grant can be retried against recycled resources.
// It reports whether anything was (or may have been) reclaimed. Blocking
// on grace periods is legal here only because this runs on allocation-
// failure paths; see allocPage for why it must stay off the common
// dry-stripe path. Callers may hold inode locks while they wait: readers
// take no inode or pool lock, so no pinned reader can be stalled behind
// them. A caller must not hold a pool lock, which the reclaim callbacks
// run here take (TestAllocReclaimsRetiredOnGrantFailure), nor be inside a
// read-side section, whose end the grace period would wait for.
func (fs *FS) reclaimRetired() bool {
	drained := false
	for fs.dom.Pending() > 0 {
		fs.dom.Synchronize()
		drained = true
		runtime.Gosched()
	}
	return drained
}

// --- Threads ---------------------------------------------------------------

// Thread is a per-worker handle; it carries the virtual CPU (for log-tail
// and allocator-stripe selection), the RCU reader, the fd table, and the
// thread's write-combining persist queue.
type Thread struct {
	fs  *FS
	cpu int
	rd  *rcu.Reader
	// fds is the descriptor table: fd i is fds[i], nil when closed.
	fds []*minode
	// pb is the thread's persist batcher, and the only way its
	// operations make a line durable: they enqueue line-granular flushes
	// into it and end on a Barrier, so the queue is empty between
	// operations.
	pb *pmem.Batch

	// tl is the thread's lane in the span tracer's ring (nil when the FS
	// has no tracer); sp is the span of the operation in flight, non-nil
	// only while a sampled operation is executing on this thread.
	tl *span.Local
	sp *span.Span

	// Scratch an operation fills and is done with before it returns: the
	// inode record being streamed (see streamInode), the block indexes a
	// write installed, the pages a truncate unpublished.
	rec   [layout.InodeSize]byte
	dirty []int
	freed []uint64
}

// streamInode renders in and streams it to ino's slot: the whole record
// goes out with non-temporal stores, durable at the caller's next Barrier.
func (t *Thread) streamInode(ino uint64, in *layout.Inode) {
	layout.EncodeInodeInto(&t.rec, in)
	t.pb.WriteStream(layout.InodeOff(t.fs.geo, ino), t.rec[:])
}

// NewThread implements fsapi.FS.
func (fs *FS) NewThread(cpu int) fsapi.Thread {
	fs.nthreads.Add(1)
	pb := fs.dev.NewBatch()
	t := &Thread{fs: fs, cpu: cpu, rd: fs.dom.Register(), pb: pb, tl: fs.tracer.NewLocal()}
	// The batch reports every flush, streaming store, and fence to the
	// thread (see Thread.SpanEvent), which counts them per-app and attaches
	// them to the sampled span when one is open.
	pb.SetSink(t)
	return t
}

// Detach releases the thread's RCU registration, drains any queued
// persists, and hands the thread's tracer lane back if it never recorded
// a span — so tenant churn does not grow the tracer's registry. (Not
// part of fsapi.Thread; benchmark drivers call it when a worker exits.)
func (t *Thread) Detach() {
	t.pb.Drain()
	if t.rd != nil {
		t.fs.dom.Unregister(t.rd)
		t.rd = nil
	}
	if t.tl != nil {
		t.fs.tracer.Release(t.tl)
		t.tl = nil
	}
}

func (t *Thread) newFD(mi *minode) fsapi.FD {
	for i, open := range t.fds {
		if open == nil {
			t.fds[i] = mi
			return fsapi.FD(i)
		}
	}
	t.fds = append(t.fds, mi)
	return fsapi.FD(len(t.fds) - 1)
}

func (t *Thread) lookupFD(fd fsapi.FD) (*minode, error) {
	if int(fd) < 0 || int(fd) >= len(t.fds) || t.fds[fd] == nil {
		return nil, fsapi.ErrBadFd
	}
	return t.fds[fd], nil
}

// Close implements fsapi.Thread.
func (t *Thread) Close(fd fsapi.FD) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpClose), &err)
	if int(fd) < 0 || int(fd) >= len(t.fds) || t.fds[fd] == nil {
		return fsapi.ErrBadFd
	}
	t.fds[fd] = nil
	return nil
}
