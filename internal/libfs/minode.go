package libfs

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/hlock"
	"arckfs/internal/htable"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
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

	dir atomic.Pointer[dirState]
	// file is published atomically because the lock-free read path
	// dereferences it with no lock held; remap/reacquire swap in a fresh
	// fileState while readers may be mid-walk on the old one.
	file atomic.Pointer[fileState]
}

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
type dirState struct {
	ht      *htable.Table
	tailset uint64
	tails   []tailCursor
	// idxMu is the "index tail" lock: it serializes structural log
	// growth (linking new pages, publishing tail heads).
	idxMu hlock.SpinLock
	// unverified lists the log pages this LibFS linked since the kernel
	// last verified the directory. They are still app-granted, so when
	// compaction unlinks them they go back to the LibFS pool; every other
	// log page is inode-owned and the kernel frees it at the next
	// verification. Guarded by idxMu.
	unverified []uint64
}

type tailCursor struct {
	mu   hlock.SpinLock
	page uint64 // 0 = tail empty
	off  int
	// slots counts the record slots (live, dead, reserved) in this
	// tail's chain: the buildMinode scan plus every append since.
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

// ht returns a directory minode's current hash table.
func (mi *minode) ht() *htable.Table { return mi.dir.Load().ht }

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

// cacheDirAttrs is cacheAttrs for a directory. Its size, the entry count,
// is read inside the writer section: creators racing in different buckets
// publish counts in the order they enter it, so the size never runs
// backwards.
func (mi *minode) cacheDirAttrs(mtime uint64) {
	a := mi.writeAttrs()
	a.size.Store(uint64(mi.ht().Len()))
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
	if v, ok := fs.mtab.Load(ino); ok {
		mi := v.(*minode)
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
	mi, err := fs.buildMinode(ino, m, nil)
	if err != nil {
		return nil, err
	}
	actual, _ := fs.mtab.LoadOrStore(ino, mi)
	return actual.(*minode), nil
}

// acquire is one Acquire crossing for ino, with write intent, attributed to
// t's span (t nil-tolerated).
func (fs *FS) acquire(t *Thread, ino uint64) (*kernel.Mapping, error) {
	begin := t.crossStart()
	m, err := fs.ctrl.AcquireObserved(fs.app, ino, true, t.sink())
	t.crossEnd(telemetry.EvAcquire, begin)
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
	// that asks for it; ask is that batch's request. All three are reused.
	lost, prev, ask []uint64
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
		if v, ok := fs.mtab.Load(ino); ok && ino != mi.ino && len(ask) < kernel.MaxReleaseBatch {
			if p := v.(*minode); p.released.Load() && !p.mapping.Load().Valid() && !p.prefetched.Load().Valid() {
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
	begin := t.crossStart()
	ms, err := fs.ctrl.AcquireBatch(fs.app, ask, t.sink())
	n := 0 // inodes mapped
	for i, m := range ms {
		if m == nil {
			continue
		}
		if n++; i == 0 {
			continue
		}
		ws.held = append(ws.held, m)
		if v, ok := fs.mtab.Load(ask[i]); ok {
			v.(*minode).prefetched.Store(m)
		}
	}
	if !begin.IsZero() {
		t.spanEv(telemetry.SpanEvAcquireBatch, int64(n), time.Since(begin).Nanoseconds())
	}
	if err != nil {
		return nil, err // nothing was granted: the next miss asks again
	}
	ws.prev = ws.prev[:0]
	return ms[0], nil
}

// adopt makes m, a mapping the kernel has just established, mi's own: the
// core state may have changed while mi was not held, so the auxiliary
// state and the cached attributes are rebuilt from it. Caller holds
// mi.lock.
func (fs *FS) adopt(mi *minode, m *kernel.Mapping) error {
	fresh, err := fs.buildMinode(mi.ino, m, mi.dir.Load())
	if err != nil {
		return err
	}
	mi.mapping.Store(m)
	mi.dir.Store(fresh.dir.Load())
	mi.file.Store(fresh.file.Load())
	st := fresh.stat()
	mi.cacheAttrs(st.Size, st.Nlink, st.MTime)
	mi.released.Store(false)
	return nil
}

// buildMinode reads ino's core state and constructs auxiliary state —
// Trio step 3: "the LibFS builds its auxiliary state from the core
// state". retained, when the inode is a directory this LibFS held before,
// is the auxiliary state it kept: the rebuilt table is sized from it, so
// it fills without growing, and shares its strings for the names that are
// still there.
func (fs *FS) buildMinode(ino uint64, m *kernel.Mapping, retained *dirState) (*minode, error) {
	in, ok, corrupt := layout.ReadInode(fs.dev, fs.geo, ino)
	if !ok || corrupt {
		return nil, fsapi.ErrStale
	}
	mi := &minode{ino: ino, typ: in.Type}
	mi.mapping.Store(m)
	mi.parent.Store(in.Parent)
	switch in.Type {
	case layout.TypeDir:
		name := func(rec []byte) string { return string(rec) }
		entries := 0
		if retained != nil {
			name, entries = retained.ht.Intern, retained.ht.Len()
		}
		ds := &dirState{
			ht:      fs.newDirTable(entries),
			tailset: in.DataRoot,
			tails:   make([]tailCursor, in.NTails),
		}
		for t := 0; t < int(in.NTails); t++ {
			head := layout.TailHead(fs.dev, in.DataRoot, t)
			if head == 0 {
				continue
			}
			var scanErr error
			page, off, corrupt := layout.ScanTail(fs.dev, head, func(d layout.RawDentry) bool {
				ds.tails[t].slots++
				if d.Live {
					if !ds.ht.Insert(name(d.Name), d.Ino, uint64(d.Ref)) {
						scanErr = fsapi.ErrStale
						return false
					}
				}
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
			if corrupt {
				return nil, fsapi.ErrStale
			}
			ds.tails[t].page = page
			ds.tails[t].off = off
		}
		mi.dir.Store(ds)
		mi.cacheAttrs(uint64(ds.ht.Len()), in.Nlink, in.MTime)
	case layout.TypeFile:
		var blocks, mapPages []uint64
		if in.DataRoot != 0 {
			mapPages = layout.MapChainPages(fs.dev, in.DataRoot)
			blocks = layout.WalkBlockMap(fs.dev, in.DataRoot, layout.BlocksForSize(in.Size))
		}
		mi.file.Store(newFileState(in.Size, blocks, mapPages))
		mi.cacheAttrs(in.Size, in.Nlink, in.MTime)
	default:
		return nil, fsapi.ErrStale
	}
	return mi, nil
}

// newDirTable builds a directory hash table that holds entries names
// before it has to grow, honoring the §4.5 bug flag: buggy mode reads with
// no discipline at all (lockless and unprotected, as shipped); the default
// is the RCU-protected lock-free path.
func (fs *FS) newDirTable(entries int) *htable.Table {
	opts := htable.Options{
		InitialBuckets: max(fs.opts.DirBuckets, htable.BucketsFor(entries)),
		StrictUAF:      fs.opts.StrictUAF,
	}
	if !fs.opts.Bugs.Has(BugLocklessBucketRead) {
		opts.RCUReaders = true
		opts.Dom = fs.dom
	}
	t := htable.New(opts)
	t.Reserve(entries)
	// Indirect through the Hooks struct so tests can arm the window after
	// tables already exist.
	t.TraverseHook = func() {
		if h := fs.opts.Hooks.BucketTraverse; h != nil {
			h()
		}
	}
	return t
}

// lookupInDir finds name in dir's hash table without locking; the §4.5
// bug drops the RCU protection. The caller supplies its RCU reader.
func (fs *FS) lookupInDir(t *Thread, mi *minode, name string) (uint64, uint64, bool, error) {
	ds := mi.dir.Load()
	if ds == nil {
		return 0, 0, false, fsapi.ErrNotDir
	}
	var rd = t.rd
	if fs.opts.Bugs.Has(BugLocklessBucketRead) {
		rd = nil
	}
	ino, ref, ok, err := ds.ht.Lookup(rd, name)
	if err != nil {
		// The simulated segfault of §4.5.
		return 0, 0, false, fsapi.ErrSegfault
	}
	return ino, ref, ok, nil
}
