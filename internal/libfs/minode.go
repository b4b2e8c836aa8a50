package libfs

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"arckfs/internal/fsapi"
	"arckfs/internal/hlock"
	"arckfs/internal/htable"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/rcu"
	"arckfs/internal/telemetry"
)

// minode is the in-memory (auxiliary, per-application) inode. Directory
// minodes carry a hash table over the persistent dentry log; file minodes
// carry a DRAM block index. The paper's §4.3 patch additionally caches
// the attributes here so lock-free readers never touch the mapped core
// state.
type minode struct {
	ino uint64
	typ uint16

	// parent is the inode's current parent directory as this LibFS
	// believes it (updated locally on rename; verified by the kernel).
	parent atomic.Uint64

	// mapping is the kernel mapping handle; nil for inodes this LibFS
	// created and has not yet committed (self-built core state needs no
	// mapping). Like dir and file it is published atomically: remap and
	// reacquire swap it while lock-free readers are checking it.
	mapping atomic.Pointer[kernel.Mapping]
	// prefetched is a dormant mapping an AcquireBatch granted while the
	// inode was released with its lease lost. It is kept apart from mapping
	// on purpose: the read path trusts the retained aux state under a valid
	// mapping, and this one covers core state a peer may have changed. The
	// next touch reactivates it and rebuilds the aux state (takeBack).
	prefetched atomic.Pointer[kernel.Mapping]

	// lock is the per-inode readers-writer lock: files take it for
	// writes (reads take no lock); directories take it for whole-inode
	// operations (release, rename source/target pinning).
	lock hlock.RWSpin

	// attrs is the §4.3 cached state: the attributes readers use without
	// dereferencing PM.
	attrs attrCache

	// fresh marks an inode created by this LibFS that the kernel has not
	// learned about (no pending/committed shadow): its inode number and
	// pages may be locally recycled on unlink.
	fresh atomic.Bool

	// released marks a voluntarily released inode whose aux state is
	// retained (§4.3 patch): reads serve from cache, writes must
	// re-acquire.
	released atomic.Bool

	dir dirRef
	// file is published atomically because the lock-free read path
	// dereferences it with no lock held; remap/reacquire swap in a fresh
	// fileState while readers may be mid-walk on the old one.
	file atomic.Pointer[fileState]

	// gone is what an unlink or rmdir that took the inode out of the table
	// hands back after the grace period it queued mi for (retireInode).
	gone retiree
}

// Reclaim runs after the grace period (rcu.Reclaimer).
func (mi *minode) Reclaim() { mi.gone.Reclaim() }

// Weight is the pages mi carries back (rcu.Weigher).
func (mi *minode) Weight() int { return mi.gone.Weight() }

// attrCache holds an inode's changing attributes in place, under a
// sequence counter: odd while a writer is inside. Writers — concurrent
// creators in different buckets of one directory are the case — take turns
// on the counter; a reader retries until it has read all three fields
// between two equal, even counts, so it never pairs the size of one update
// with the mtime of another. Every field is atomic: the counter orders
// them, it does not excuse a race.
type attrCache struct {
	seq   atomic.Uint32
	nlink atomic.Uint32
	size  atomic.Uint64
	mtime atomic.Uint64
}

// attrSpins is how often a reader or writer of attrCache retries before
// it yields the processor: on one core the writer it waits for cannot
// finish until it does.
const attrSpins = 16

// dirState is a directory's auxiliary state plus its log-append cursors.
// A state an rmdir or a rebuild replaced is retired whole, itself the RCU
// queue node, and after the grace period becomes a spare (spareDirs).
type dirState struct {
	fs      *FS
	ht      *htable.Table
	tailset uint64
	tails   []tailCursor
	// idxMu is the "index tail" lock: it serializes structural log
	// growth (linking new pages, publishing tail heads).
	idxMu hlock.SpinLock
	// unverified lists the log pages this LibFS linked since the kernel
	// last verified the directory. They are still app-granted, so when a
	// compaction splices them out they go back to the LibFS pool; every other
	// log page is inode-owned and the kernel frees it at the next
	// verification. Guarded by idxMu.
	unverified []uint64
	// dead lists the tombstoned record slots a create may fill instead of
	// appending. Guarded by idxMu.
	dead deadSlots
	// logPages is the storage an rmdir of the fresh directory lists its
	// tail-set and log pages in, kept with the state for the next rmdir.
	logPages []uint64
}

// Reclaim runs after the grace period a rebuild queued ds behind
// (rcu.Reclaimer).
func (ds *dirState) Reclaim() { ds.fs.recycleDir(ds) }

// removedDir is the auxiliary state of every removed directory: empty,
// and refused to writers (locked). Rmdir swaps it in before it
// retires the directory's own state, which a later Mkdir may reuse, so a
// thread still holding the removed minode finds it empty rather than
// finding that other directory's names.
var removedDir = &dirState{ht: htable.New(htable.Options{InitialBuckets: 1})}

// maxSpareBuckets bounds the bucket array a spare directory state keeps.
// Readdir's Range and a release's LockAll visit every bucket, full or
// empty, so a new directory built on a spare pays for the array its
// predecessor grew to. 1 024 buckets (64 KiB, what a directory of 4 096
// names grows to) bound either walk of an empty table at 17–22 µs, against
// 0.3 µs at the default 16 (htable's BenchmarkEmptyWalk on a 2-vCPU Xeon);
// a larger array goes back to the default size, and the spare keeps its
// entries. No benchmark workload reaches the cap: meta_churn's
// directories grow to 256 buckets.
const maxSpareBuckets = 1024

// maxSpareDirs bounds the spares an FS keeps; one more is left to the
// garbage collector. The benchmark's workloads keep at most 3 (meta_churn)
// and 2 a LibFS (handoff: the root and /h, each rebuilt once a turn).
const maxSpareDirs = 16

// reusesDirs reports whether a removed or rebuilt directory's auxiliary
// state is kept for a later Mkdir or rebuild. Only with the §4.4 and §4.5
// patches both in: every writer of the state then holds a bucket lock,
// which Drain and Clear wait out, every lookup in it loaded it inside a
// read-side section its grace period waits for, and a listing holds every
// bucket lock (names).
func (fs *FS) reusesDirs() bool {
	return !fs.opts.Bugs.Has(BugAuxCoreRace | BugLocklessBucketRead)
}

// spareDirs is the stack of directory states back from their grace period,
// which Mkdir and rebuilds build on. Any goroutine's grace period pushes to
// it, and every get sees all of them.
type spareDirs struct {
	mu   sync.Mutex
	dirs []*dirState
}

// put pushes ds, empty and unreachable, unless the stack is full.
func (s *spareDirs) put(ds *dirState) {
	s.mu.Lock()
	if len(s.dirs) < maxSpareDirs {
		s.dirs = append(s.dirs, ds)
	}
	s.mu.Unlock()
}

// get takes the spare that fits n names best, nil if there is none: the
// smallest whose table takes them without allocating, else the largest.
func (s *spareDirs) get(n int) *dirState {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestCap := -1, 0
	for i, ds := range s.dirs {
		c := ds.ht.Capacity()
		fits, bestFits := c >= n, bestCap >= n
		if best < 0 || fits && (!bestFits || c < bestCap) || !fits && !bestFits && c > bestCap {
			best, bestCap = i, c
		}
	}
	if best < 0 {
		return nil
	}
	ds, last := s.dirs[best], len(s.dirs)-1
	s.dirs[best], s.dirs[last] = s.dirs[last], nil
	s.dirs = s.dirs[:last]
	return ds
}

// recycleDir empties ds, which no reader can reach any more, and makes it
// a spare.
func (fs *FS) recycleDir(ds *dirState) {
	ds.ht.Clear(maxSpareBuckets, fs.dirBuckets(0))
	fs.spareDirs.put(ds)
}

// emptyDir returns the auxiliary state of an empty directory whose
// tail-set page is tailset, ready to take entries names without growing:
// the spare that fits them best, reset, if there is one, else a new one.
func (fs *FS) emptyDir(tailset uint64, ntails, entries int) *dirState {
	ds := fs.spareDirs.get(entries)
	if ds == nil {
		return &dirState{fs: fs, ht: fs.newDirTable(entries), tailset: tailset, tails: make([]tailCursor, ntails)}
	}
	ds.ht.Reserve(entries)
	ds.tailset = tailset
	// A markVerified that loaded ds while it was another directory's locks
	// idxMu, and finds ds not that directory's: it looks no further.
	if len(ds.tails) == ntails {
		clear(ds.tails)
	} else {
		ds.tails = make([]tailCursor, ntails)
	}
	ds.unverified = ds.unverified[:0]
	for c := range ds.dead {
		ds.dead[c] = ds.dead[c][:0]
	}
	return ds
}

// deadSlots holds a directory's dead record slots in one stack per record
// length, so a create finds a slot of its own length without a search.
// Stack c holds records of length layout.DentryHeaderSize + 8c.
type deadSlots [][]layout.DentryRef

// maxDeadRecLen is the longest record a create writes; a dead record
// longer than that (only a corrupt image has one) is never listed.
var maxDeadRecLen = layout.DentryRecLen(layout.MaxName)

// push lists the dead record r of length recLen.
func (d *deadSlots) push(r layout.DentryRef, recLen int) {
	if recLen > maxDeadRecLen {
		return
	}
	c := (recLen - layout.DentryHeaderSize) / 8
	for len(*d) <= c {
		*d = append(*d, nil)
	}
	(*d)[c] = append((*d)[c], r)
}

// pop takes a listed slot of length recLen, if there is one.
func (d deadSlots) pop(recLen int) (layout.DentryRef, bool) {
	c := (recLen - layout.DentryHeaderSize) / 8
	if c >= len(d) || len(d[c]) == 0 {
		return 0, false
	}
	s := d[c]
	d[c] = s[:len(s)-1]
	return s[len(s)-1], true
}

// keep drops every listed slot for which ok is false.
func (d deadSlots) keep(ok func(layout.DentryRef) bool) {
	for c, s := range d {
		d[c] = slices.DeleteFunc(s, func(r layout.DentryRef) bool { return !ok(r) })
	}
}

// addDead lists the dead slot r of a record for a name of nameLen bytes.
func (ds *dirState) addDead(r layout.DentryRef, nameLen int) {
	ds.idxMu.Lock()
	ds.dead.push(r, layout.DentryRecLen(nameLen))
	ds.idxMu.Unlock()
}

type tailCursor struct {
	mu hlock.SpinLock
	// linked is set when this LibFS links the tail's current page, and
	// cleared when the kernel verifies the directory. Set under the tail
	// lock and idxMu, cleared under idxMu alone.
	linked atomic.Bool
	page   uint64 // 0 = tail empty
	off    int
	// slots counts the record slots (live, dead, reserved) in this
	// tail's chain: the build scan plus every append since. Filling
	// a dead slot leaves it as it is.
	slots int
	_     [32]byte
}

// fileState is a file's auxiliary block index. Writers mutate it under
// minode.lock; the lock-free read path walks it with no lock at all,
// relying on the publication order below.
type fileState struct {
	// blocks is the published block index: entry k holds the PM page
	// backing file block k, 0 = hole. Writers store new entries — and
	// publish grown arrays — before publishing the size that makes them
	// reachable, so a lock-free reader that observes a size also
	// observes every block pointer below it. Superseded arrays are left
	// to the garbage collector; unlike htable entries they are never
	// recycled, so no grace period is needed.
	blocks atomic.Pointer[[]atomic.Uint64]
	// nblocks is the writer-side logical length of the index (entries at
	// or beyond it are zero). Guarded by minode.lock.
	nblocks int
	// mapPages are the PM map-chain pages backing blocks; writers only.
	mapPages []uint64
	size     atomic.Uint64
	// unverified lists the blocks and map pages this LibFS added to a
	// committed file since the kernel last verified it (a fresh file's
	// pages are all its own, and are not listed). They are still
	// app-granted, so when a shrink cuts one off or the file is unlinked
	// they go back to the LibFS pool; every other page is inode-owned and
	// the kernel frees it at its next verification. Writers only, like
	// mapPages.
	unverified []uint64
}

// added records page p, just linked into mi's file, as unverified.
// Caller holds mi.lock.
func (st *fileState) added(mi *minode, p uint64) {
	if !mi.fresh.Load() {
		st.unverified = append(st.unverified, p)
	}
}

// cutUnverified removes from the unverified list the pages of cut, which
// it sorts, and returns them in list order. Caller holds minode.lock.
func (st *fileState) cutUnverified(cut []uint64) []uint64 {
	if len(st.unverified) == 0 {
		return nil
	}
	slices.Sort(cut)
	var out []uint64
	keep := st.unverified[:0]
	for _, p := range st.unverified {
		if _, found := slices.BinarySearch(cut, p); found {
			out = append(out, p)
		} else {
			keep = append(keep, p)
		}
	}
	st.unverified = keep
	return out
}

// newFileState builds a published index from recovered state.
func newFileState(size uint64, blocks, mapPages []uint64) *fileState {
	st := &fileState{nblocks: len(blocks), mapPages: mapPages}
	st.size.Store(size)
	if len(blocks) > 0 {
		arr := make([]atomic.Uint64, len(blocks))
		for i, b := range blocks {
			arr[i].Store(b)
		}
		st.blocks.Store(&arr)
	}
	return st
}

// blockArr returns the current published index (nil-tolerant).
func (st *fileState) blockArr() []atomic.Uint64 {
	if p := st.blocks.Load(); p != nil {
		return *p
	}
	return nil
}

// mapShort is how many pages the map chain lacks to index n blocks.
func (st *fileState) mapShort(n int) int {
	return max(0, (n+layout.MapEntriesPerPage-1)/layout.MapEntriesPerPage-len(st.mapPages))
}

// ensureBlocks grows the published index to hold at least n entries and
// raises the logical length. Caller holds minode.lock; in-flight readers
// keep walking the old array, which remains intact.
func (st *fileState) ensureBlocks(n int) {
	arr := st.blockArr()
	if n > len(arr) {
		grow := len(arr) * 2
		if grow < 8 {
			grow = 8
		}
		for grow < n {
			grow *= 2
		}
		fresh := make([]atomic.Uint64, grow)
		for i := range arr {
			fresh[i].Store(arr[i].Load())
		}
		st.blocks.Store(&fresh)
	}
	if n > st.nblocks {
		st.nblocks = n
	}
}

// unmapped reports whether the kernel revoked the inode's mapping (an
// inode that never had one is self-built, not unmapped).
func (mi *minode) unmapped() bool {
	m := mi.mapping.Load()
	return m != nil && !m.Valid()
}

// checkMapped returns the §4.3 simulated bus error if the inode's core
// state is no longer mapped.
func (fs *FS) checkMapped(mi *minode) error {
	if mi.unmapped() {
		return fsapi.ErrBusError
	}
	return nil
}

// cacheAttrs refreshes the cached attributes from in-memory knowledge.
func (mi *minode) cacheAttrs(size uint64, nlink uint16, mtime uint64) {
	a := mi.writeAttrs()
	a.size.Store(size)
	a.nlink.Store(uint32(nlink))
	a.mtime.Store(mtime)
	a.seq.Add(1)
}

// cacheDirAttrs is cacheAttrs for t's directory mi. Its size, the entry
// count, is read inside the writer section: creators racing in different
// buckets publish counts in the order they enter it, so the size never runs
// backwards.
func (t *Thread) cacheDirAttrs(mi *minode, mtime uint64) {
	a := mi.writeAttrs()
	t.rd.ReadLock()
	a.size.Store(uint64(mi.dir.pinned(t.fs.dev, t.rd).ht.Len()))
	t.rd.ReadUnlock()
	a.nlink.Store(2)
	a.mtime.Store(mtime)
	a.seq.Add(1)
}

// writeAttrs enters the attribute writer section; the caller leaves it with
// a.seq.Add(1).
func (mi *minode) writeAttrs() *attrCache {
	a := &mi.attrs
	for spins := 1; ; spins++ {
		if s := a.seq.Load(); s&1 == 0 && a.seq.CompareAndSwap(s, s+1) {
			return a
		}
		if spins%attrSpins == 0 {
			runtime.Gosched()
		}
	}
}

// stat returns the cached attributes as one writer left them.
func (mi *minode) stat() fsapi.Stat {
	a := &mi.attrs
	st := fsapi.Stat{Ino: mi.ino, Dir: mi.typ == layout.TypeDir}
	for spins := 1; ; spins++ {
		s := a.seq.Load()
		st.Size, st.Nlink, st.MTime = a.size.Load(), uint16(a.nlink.Load()), a.mtime.Load()
		if s&1 == 0 && a.seq.Load() == s {
			return st
		}
		if spins%attrSpins == 0 {
			runtime.Gosched()
		}
	}
}

// newFileMinode builds the minode of an empty file this LibFS has just
// created, block index included: one object.
func newFileMinode(ino, parent, mtime uint64) *minode {
	f := &struct {
		minode
		st fileState
	}{minode: minode{ino: ino, typ: layout.TypeFile}}
	mi := &f.minode
	mi.file.Store(&f.st)
	mi.parent.Store(parent)
	mi.fresh.Store(true)
	mi.cacheAttrs(0, 1, mtime)
	return mi
}

// getMinode returns the in-memory inode for ino, acquiring it from the
// kernel and rebuilding auxiliary state on first touch. t (nil-tolerated)
// attributes kernel crossings to the operation's span.
func (fs *FS) getMinode(t *Thread, ino uint64, write bool) (*minode, error) {
	if mi := fs.inodes.Load(ino); mi != nil {
		if mi.released.Load() {
			switch {
			case write:
				if err := fs.reacquire(t, mi); err != nil {
					return nil, err
				}
			case !mi.mapping.Load().Valid():
				// The dormant lease is gone: another application owned
				// this inode since we released it, so the retained
				// auxiliary state may be stale. Re-acquire and rebuild;
				// if a peer still actively holds it, fall back to the
				// retained (last-verified) aux — a read-only touch must
				// not steal ownership from a live holder, and any entry
				// the walk then resolves is re-verified at its own
				// acquire anyway.
				if err := fs.reacquire(t, mi); err != nil {
					if !errors.Is(err, fsapi.ErrBusy) {
						return nil, err
					}
					fs.Stats.StaleReads.Add(1)
				}
			}
			// Otherwise: a read under an intact dormant lease — the core
			// state cannot have changed, the retained aux is exact.
		}
		return mi, nil
	}
	m, err := fs.acquire(t, ino)
	if err != nil {
		return nil, err
	}
	in, ok, corrupt := layout.ReadInode(fs.dev, fs.geo, ino)
	if !ok || corrupt {
		return nil, fsapi.ErrStale
	}
	mi := &minode{ino: ino, typ: in.Type}
	mi.parent.Store(in.Parent)
	if err := fs.build(mi, m, &in); err != nil {
		return nil, err
	}
	return fs.inodes.LoadOrStore(ino, mi), nil
}

// acquire is one crossing that acquires ino, an AcquireBatch of one (with
// write intent), attributed to t's span, in t's scratch.
func (fs *FS) acquire(t *Thread, ino uint64) (*kernel.Mapping, error) {
	c := fs.cross(t.CurrentSpan())
	t.req[0] = ino
	ms, err := fs.ctrl.AcquireBatch(fs.app, t.req[:], t.sink(), t.acqOut[:0])
	c.done(telemetry.SpanEvCrossing, int64(telemetry.EvAcquire))
	var m *kernel.Mapping
	if err == nil {
		m = ms[0]
	}
	t.acqOut[0] = nil
	return m, err
}

// remap re-acquires an inode whose mapping the kernel revoked underneath
// us (an involuntary release or a trust-group transfer to a peer): the
// patched LibFS rebuilds and retries instead of crashing. ArckFS as
// shipped has no such path — the revocation is a crash (§4.3).
func (fs *FS) remap(t *Thread, mi *minode) error {
	if fs.opts.Bugs.Has(BugReleaseUnsync) {
		return fsapi.ErrBusError
	}
	fs.Stats.Remaps.Add(1)
	m, err := fs.acquire(t, mi.ino)
	if err != nil {
		return err
	}
	mi.lock.Lock()
	defer mi.lock.Unlock()
	if mi.mapping.Load().Valid() {
		return nil // raced with another remapper
	}
	return fs.adopt(mi, m)
}

// reacquire remaps a released inode (§4.3 patch path: aux was retained).
//
// A voluntary release left the mapping dormant in the kernel instead of
// tearing it down; if no other application reclaimed the inode in the
// meantime, the CAS in Reactivate wins it back without a kernel crossing,
// and the retained auxiliary state is still exact because a dormant
// inode's core state cannot have changed (any change requires a reclaim,
// which fails the CAS). Only on a lost CAS — the kernel revoked the
// lease — is the inode taken back from the kernel (takeBack).
func (fs *FS) reacquire(t *Thread, mi *minode) error {
	mi.lock.Lock()
	if !mi.released.Load() {
		mi.lock.Unlock()
		return nil // lost the race to another re-acquirer
	}
	if mi.mapping.Load().Reactivate() {
		mi.released.Store(false)
		mi.lock.Unlock()
		fs.Stats.LeaseHits.Add(1)
		fs.Stats.SyscallsAvoided.Add(1)
		// The span's record of the crossing that did NOT happen: a
		// lease-hit operation must still trace end to end.
		t.spanEv(telemetry.SpanEvLeaseHit, int64(mi.ino), 0)
		return nil
	}
	mi.lock.Unlock()
	fs.Stats.LeaseMisses.Add(1)
	t.spanEv(telemetry.SpanEvLeaseMiss, int64(mi.ino), 0)
	fs.Stats.Reacquires.Add(1)
	m, err := fs.takeBack(t, mi)
	if err != nil {
		return err
	}
	mi.lock.Lock()
	defer mi.lock.Unlock()
	if !mi.released.Load() {
		return nil // lost the race to another re-acquirer
	}
	return fs.adopt(mi, m)
}

// workingSet is what a LibFS takes back in one AcquireBatch crossing at the
// first lease miss of a hold (a hold runs from one ReleaseAll to the next):
// the inodes it lost to a lease miss in its previous hold. Not every lease
// a peer revoked — an inode touched once, at setup say, would then ride
// along with every first miss after it.
type workingSet struct {
	// mu is held across the batch crossing, so exactly one thread of the
	// FS issues it; a thread that misses meanwhile waits, then finds its
	// inode prefetched.
	mu sync.Mutex
	// lost lists the inodes this hold lost to a lease miss, at most one
	// batch's worth; prev is the previous hold's, emptied by the batch
	// that asks for it; ask is that batch's request, and got its answer.
	// All four are reused.
	lost, prev, ask []uint64
	got             []*kernel.Mapping
	// held is what this hold's batch prefetched. The kernel holds each
	// against apps outside this one's trust group until it is reactivated
	// or endHold ends the hold.
	held []*kernel.Mapping
}

// endHold begins a new hold: what the one ending lost is what the next
// one's first lease miss takes back, and a prefetch it never touched
// becomes an ordinary dormant lease, free for another app to reclaim.
func (ws *workingSet) endHold() {
	ws.mu.Lock()
	for _, m := range ws.held {
		m.EndHold()
	}
	clear(ws.held)
	ws.held = ws.held[:0]
	ws.prev, ws.lost = ws.lost, ws.prev[:0]
	ws.mu.Unlock()
}

// takeBack returns a kernel mapping for released mi, whose dormant lease
// the kernel reclaimed. One a batch prefetched is reactivated without a
// crossing. Otherwise the first such miss of a hold asks, in one
// AcquireBatch, for mi and for every inode of the previous hold's working
// set that is still released with its lease lost; the tail comes back
// dormant into prefetched, held for this app until endHold. A batch that
// fails on mi grants nothing, and the next miss asks again; once one
// succeeds, later misses pay one Acquire.
func (fs *FS) takeBack(t *Thread, mi *minode) (*kernel.Mapping, error) {
	ws := &fs.ws
	ws.mu.Lock()
	if len(ws.lost) < kernel.MaxReleaseBatch && !slices.Contains(ws.lost, mi.ino) {
		ws.lost = append(ws.lost, mi.ino)
	}
	if m := mi.prefetched.Swap(nil); m.Reactivate() {
		ws.mu.Unlock()
		fs.Stats.SyscallsAvoided.Add(1)
		return m, nil
	}
	ask := append(ws.ask[:0], mi.ino)
	for _, ino := range ws.prev {
		if p := fs.inodes.Load(ino); p != nil && ino != mi.ino && len(ask) < kernel.MaxReleaseBatch {
			if p.released.Load() && !p.mapping.Load().Valid() && !p.prefetched.Load().Valid() {
				ask = append(ask, ino)
			}
		}
	}
	if ws.ask = ask; len(ask) == 1 {
		ws.prev = ws.prev[:0]
		ws.mu.Unlock()
		return fs.acquire(t, mi.ino)
	}
	defer ws.mu.Unlock()
	c := fs.cross(t.CurrentSpan())
	ms, err := fs.ctrl.AcquireBatch(fs.app, ask, t.sink(), ws.got[:0])
	defer func() { clear(ms); ws.got = ms[:0] }()
	n := 0 // inodes mapped
	for i, m := range ms {
		if m == nil {
			continue
		}
		if n++; i == 0 {
			continue
		}
		ws.held = append(ws.held, m)
		if p := fs.inodes.Load(ask[i]); p != nil {
			p.prefetched.Store(m)
		}
	}
	c.done(telemetry.SpanEvAcquireBatch, int64(n))
	if err != nil {
		return nil, err // nothing was granted: the next miss asks again
	}
	ws.prev = ws.prev[:0]
	return ms[0], nil
}

// adopt makes m, a mapping the kernel has just established, mi's own: the
// core state may have changed while mi was not held, so the auxiliary
// state and the cached attributes are rebuilt from it, into mi. Caller
// holds mi.lock.
func (fs *FS) adopt(mi *minode, m *kernel.Mapping) error {
	in, ok, corrupt := layout.ReadInode(fs.dev, fs.geo, mi.ino)
	if !ok || corrupt || in.Type != mi.typ {
		return fsapi.ErrStale
	}
	if err := fs.build(mi, m, &in); err != nil {
		return err
	}
	mi.released.Store(false)
	return nil
}

// build constructs mi's auxiliary state from its core state, whose inode
// record is in, and publishes it with mapping m — Trio step 3: "the LibFS
// builds its auxiliary state from the core state". A directory is built
// into a spare state when there is one (emptyDir). One this LibFS held
// before is sized from the state it retained, so it fills without growing,
// and shares that state's strings for the names still there; the retained
// state is then retired, for a later build to reuse. A file keeps its index
// if it still says what the core state does (indexes). On an error mi
// keeps its published state. The caller holds mi.lock, or is the only
// thread that can reach mi.
func (fs *FS) build(mi *minode, m *kernel.Mapping, in *layout.Inode) error {
	switch in.Type {
	case layout.TypeDir:
		name := func(rec []byte) string { return string(rec) }
		entries := 0
		retained := mi.dir.exclusive()
		if retained != nil {
			name, entries = retained.ht.Intern, retained.ht.Len()
		}
		ds := fs.emptyDir(in.DataRoot, int(in.NTails), entries)
		if err := fs.scanDir(ds, in, name); err != nil {
			// Never published: no reader or writer has used ds.
			fs.recycleDir(ds)
			return err
		}
		mi.mapping.Store(m)
		mi.dir.set(ds)
		mi.file.Store(nil)
		mi.cacheAttrs(uint64(ds.ht.Len()), in.Nlink, in.MTime)
		if retained != nil && retained != removedDir && fs.reusesDirs() {
			// A writer that locks one of retained's buckets from here on
			// finds mi's state changed; Drain waits out those inside one.
			retained.ht.Drain()
			fs.dom.Retire(retained)
		}
	case layout.TypeFile:
		st := mi.file.Load()
		if !fs.indexes(st, in) {
			var blocks, mapPages []uint64
			if in.DataRoot != 0 {
				mapPages = layout.MapChainPages(fs.dev, in.DataRoot)
				blocks = layout.WalkBlockMap(fs.dev, in.DataRoot, layout.BlocksForSize(in.Size))
			}
			st = newFileState(in.Size, blocks, mapPages)
		}
		mi.mapping.Store(m)
		mi.dir.set(nil)
		mi.file.Store(st)
		mi.cacheAttrs(in.Size, in.Nlink, in.MTime)
	default:
		return fsapi.ErrStale
	}
	return nil
}

// scanDir fills ds, an empty directory state, from the dentry log of the
// directory whose inode record is in, taking each live record's name
// through name.
func (fs *FS) scanDir(ds *dirState, in *layout.Inode, name func([]byte) string) error {
	for t := range ds.tails {
		head := layout.TailHead(fs.dev, in.DataRoot, t)
		if head == 0 {
			continue
		}
		var scanErr error
		page, off, corrupt := layout.ScanTail(fs.dev, head, func(d layout.RawDentry) bool {
			ds.tails[t].slots++
			if !d.Live {
				ds.dead.push(d.Ref, d.RecLen)
			} else if !ds.ht.Insert(name(d.Name), d.Ino, uint64(d.Ref)) {
				scanErr = fsapi.ErrStale
				return false
			}
			return true
		})
		if scanErr != nil {
			return scanErr
		}
		if corrupt {
			return fsapi.ErrStale
		}
		ds.tails[t].page = page
		ds.tails[t].off = off
	}
	return nil
}

// indexes reports whether st, a file's index, is what a rebuild from the
// file's inode record in would make: the same size, the same map chain and
// the same block pointers, with no page of st's still unverified. A peer
// that only overwrote the file in place leaves it so. The walk compares as
// it goes, and stops at the first difference.
func (fs *FS) indexes(st *fileState, in *layout.Inode) bool {
	if st == nil || st.size.Load() != in.Size || len(st.unverified) > 0 {
		return false
	}
	n := 0 // map pages walked
	for p := in.DataRoot; p != 0; p = layout.NextPage(fs.dev, p) {
		if n == len(st.mapPages) || st.mapPages[n] != p {
			return false
		}
		n++
	}
	if n != len(st.mapPages) || min(layout.BlocksForSize(in.Size), n*layout.MapEntriesPerPage) != st.nblocks {
		return false
	}
	arr := st.blockArr()
	for k := range st.nblocks {
		if layout.MapEntry(fs.dev, st.mapPages[k/layout.MapEntriesPerPage], k%layout.MapEntriesPerPage) != arr[k].Load() {
			return false
		}
	}
	return true
}

// dirBuckets is the bucket count a directory table starts with when it is
// made for entries names.
func (fs *FS) dirBuckets(entries int) int {
	return max(fs.opts.DirBuckets, htable.BucketsFor(entries))
}

// newDirTable builds a directory hash table that holds entries names
// before it has to grow, honoring the §4.5 bug flag: buggy mode reads with
// no discipline at all (lockless and unprotected, as shipped); the default
// is the RCU-protected lock-free path.
func (fs *FS) newDirTable(entries int) *htable.Table {
	opts := htable.Options{
		InitialBuckets: fs.dirBuckets(entries),
		StrictUAF:      fs.opts.StrictUAF,
	}
	if !fs.opts.Bugs.Has(BugLocklessBucketRead) {
		opts.RCUReaders = true
		opts.Dom = fs.dom
	}
	t := htable.New(opts)
	t.Reserve(entries)
	return t
}

// lookupInDir finds name in dir's hash table without locking; the §4.5
// bug drops the RCU protection. The caller supplies its RCU reader, which
// is pinned before the state is loaded: a state a rebuild or an rmdir
// retires after that load is not emptied, nor reused, until the lookup's
// read-side section ends.
func (fs *FS) lookupInDir(t *Thread, mi *minode, name string) (uint64, uint64, bool, error) {
	if fs.opts.Bugs.Has(BugLocklessBucketRead) {
		return fs.searchDir(nil, mi, name)
	}
	t.rd.ReadLock()
	ino, ref, ok, err := fs.searchDir(t.rd, mi, name)
	t.rd.ReadUnlock()
	return ino, ref, ok, err
}

// searchDir looks name up in mi's directory state inside rd's read-side
// section (nil: none, the §4.5 bug).
func (fs *FS) searchDir(rd *rcu.Reader, mi *minode, name string) (uint64, uint64, bool, error) {
	ds := mi.dir.pinned(fs.dev, rd)
	if ds == nil {
		return 0, 0, false, fsapi.ErrNotDir
	}
	ino, ref, ok, err := ds.ht.Lookup(rd, name)
	if err != nil {
		// The simulated segfault of §4.5.
		return 0, 0, false, fsapi.ErrSegfault
	}
	return ino, ref, ok, nil
}
