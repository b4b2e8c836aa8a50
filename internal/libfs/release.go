package libfs

import (
	"cmp"
	"slices"

	"arckfs/internal/fsapi"
	"arckfs/internal/htable"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// ensureCommitted makes the kernel's view of mi a committed shadow inode,
// committing the parent chain as needed (LibFS Rule 1: an inode can only
// be committed once its parent's verification has connected it to the
// root).
func (fs *FS) ensureCommitted(t *Thread, mi *minode) error {
	// Ownership transfer: nothing of this thread's may still sit in the
	// write-combining queue when the kernel snapshots core state.
	// Operations end on an epoch boundary, so this is normally a no-op.
	t.pb.Drain()
	if mi.ino == layout.RootIno {
		return nil
	}
	if mi.fresh.Load() {
		pIno := mi.parent.Load()
		pmi, err := fs.getMinode(t, pIno, false)
		if err != nil {
			return err
		}
		if err := fs.ensureCommitted(t, pmi); err != nil {
			return err
		}
		// Committing the parent directory verifies its new entries and
		// creates pending shadows for every fresh child, mi included.
		if err := fs.commitCrossing(t, pIno); err != nil {
			return err
		}
		for _, c := range fs.freshChildren(nil, pIno) {
			c.fresh.Store(false)
		}
	}
	// Pending -> committed (or a re-verification of an already committed
	// inode, which also refreshes the kernel's baseline snapshot).
	return fs.commitCrossing(t, mi.ino)
}

// commitCrossing commits ino in a Transfer of one, with span attribution,
// in t's scratch.
func (fs *FS) commitCrossing(t *Thread, ino uint64) error {
	c := fs.cross(t.CurrentSpan())
	t.req[0] = ino
	err := fs.ctrl.Transfer(fs.app, t.req[:], kernel.XferCommit, t.sink(), t.xferOut[:0])[0].Err
	t.xferOut[0] = kernel.Released{}
	c.done(telemetry.SpanEvCrossing, int64(telemetry.EvCommit))
	if mi := fs.inodes.Load(ino); mi != nil && err == nil {
		mi.dir.Load().markVerified()
		if mi.typ == layout.TypeFile {
			mi.lock.Lock()
			mi.file.Load().markVerified()
			mi.lock.Unlock()
		}
	}
	return err
}

// markVerified records that the kernel has verified the directory (a
// successful Commit or Release): every log page linked so far is now
// inode-owned, and no tail's current page is this hold's. A page a
// concurrent append links while the crossing is in flight is forgotten
// with the rest even if the kernel's parse missed it; should a compaction
// later splice it out, it stays granted-but-idle until the app
// unregisters — the safe side, since handing the pool a page the kernel
// did adopt would fail the next verification that links it.
func (ds *dirState) markVerified() {
	if ds == nil {
		return
	}
	ds.idxMu.Lock()
	ds.unverified = nil
	for i := range ds.tails {
		ds.tails[i].linked.Store(false)
	}
	ds.idxMu.Unlock()
}

// markVerified is the file's: every page added so far is inode-owned now.
// A page a concurrent writer adds while a Commit is in flight is forgotten
// the same way. Caller holds minode.lock.
func (st *fileState) markVerified() {
	if st != nil {
		st.unverified = nil
	}
}

// freshChildren appends to dst the cached fresh minodes whose parent is
// dir: the children a verification of dir makes known to the kernel, so
// that their resources are no longer locally recyclable. It ranges over the
// whole inode table; ReleaseAll reads them off the directories' own tables
// instead (quiesceHeld).
func (fs *FS) freshChildren(dst []*minode, dir uint64) []*minode {
	fs.inodes.Range(func(mi *minode) bool {
		if mi.fresh.Load() && mi.parent.Load() == dir {
			dst = append(dst, mi)
		}
		return true
	})
	return dst
}

// CommitInode runs the commit protocol for path's inode, making it (and
// any fresh ancestors) verified kernel state without giving up ownership.
func (fs *FS) CommitInode(t *Thread, path string) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpCommit), &err)
	mi, err := t.resolve(path)
	if err != nil {
		return err
	}
	return fs.ensureCommitted(t, mi)
}

// ReleaseInode voluntarily returns ino to the kernel: a release batch of
// one.
func (fs *FS) ReleaseInode(ino uint64) error {
	mi := fs.inodes.Load(ino)
	if mi == nil {
		// No thread lends its scratch here: ReleaseAll's, under its lock.
		fs.relMu.Lock()
		defer fs.relMu.Unlock()
		s := &fs.rel
		c := fs.cross(nil) // no operation pays for it: no span
		s.res = fs.ctrl.Transfer(fs.app, append(s.inos[:0], ino), kernel.XferRelease, nil, s.res[:0])
		c.done(telemetry.SpanEvReleaseBatch, 1)
		err := s.res[0].Err
		clear(s.res)
		s.res = s.res[:0]
		return err
	}
	var s releaseScratch
	if q, ok := fs.quiesce(mi, nil); ok {
		s.batch = append(s.batch, q)
		if mi.typ == layout.TypeDir {
			s.known = fs.freshChildren(s.known, mi.ino)
		}
	}
	return fs.releaseBatch(&s, nil)
}

// quiesced is one inode of a release batch with the locks that hold it
// still.
type quiesced struct {
	mi            *minode
	unlockBuckets func() // nil for files
}

// releaseScratch is a release's working storage: the batch, and what
// quiesceHeld and releaseBatch build around it. ReleaseAll's lives on the
// FS under relMu and is reused from call to call; none of it outlives the
// call that fills it.
type releaseScratch struct {
	levels [][]*minode // quiesceHeld's: levels[d] is what is held d steps below the root
	batch  []quiesced
	// known lists the fresh children of the batch's directories, which the
	// directories' verification makes known to the kernel.
	known []*minode
	inos  []uint64
	res   []kernel.Released
}

// quiesce stills mi for a release; ok is false when mi is not (or no
// longer) this LibFS's to hand back. Work is reported to sp (nil-safe).
//
// ArckFS+ (§4.3 patch): it takes the inode's write lock and every bucket
// lock of its hash table, so no other thread can be mid-operation when the
// mapping is torn down; the auxiliary state and the locks are retained, and
// readers keep using the cached in-memory inode afterwards.
//
// ArckFS as shipped (BugReleaseUnsync): no quiescing at all — another
// thread inside an operation dereferences the unmapped core state and
// crashes (the simulated bus error).
func (fs *FS) quiesce(mi *minode, sp *span.Span) (q quiesced, ok bool) {
	if mi.released.Load() {
		return q, false
	}
	q.mi = mi
	if fs.opts.Bugs.Has(BugReleaseUnsync) {
		fs.inodes.Delete(mi.ino)
		return q, true
	}
	mi.lock.Lock()
	if mi.released.Load() || fs.inodes.Load(mi.ino) != mi {
		// Released or unlinked while we waited for the lock.
		mi.lock.Unlock()
		return q, false
	}
	if ds := mi.dir.Load(); ds != nil {
		q.unlockBuckets = ds.ht.LockAll()
		// The directory is quiescent: hand back live entries, not history.
		fs.compactDir(mi, sp)
	}
	return q, true
}

// releaseBatch hands s.batch, quiesced parents before children, to the
// kernel, one crossing per kernel.MaxReleaseBatch inodes, then publishes
// every verdict and drops the locks. It returns the first error, after
// releasing everything, and leaves s empty.
func (fs *FS) releaseBatch(s *releaseScratch, sp *span.Span) (err error) {
	unsync := fs.opts.Bugs.Has(BugReleaseUnsync)
	batch, inos := s.batch, s.inos[:0]
	for _, q := range batch {
		inos = append(inos, q.mi.ino)
	}

	// A leased release is verified and applied like a plain one, but the
	// kernel keeps the mapping alive in a dormant state so a later
	// reacquire can win it back without a crossing. ArckFS as shipped has
	// no leases: its release unmaps.
	kind := kernel.XferLease
	if unsync {
		kind = kernel.XferRelease
	}
	var sink telemetry.SpanSink
	if sp != nil {
		sink = sp
	}
	res := s.res[:0]
	for lo := 0; lo < len(inos); lo += kernel.MaxReleaseBatch {
		part := inos[lo:min(lo+kernel.MaxReleaseBatch, len(inos))]
		c := fs.cross(sp)
		res = fs.ctrl.Transfer(fs.app, part, kind, sink, res)
		c.done(telemetry.SpanEvReleaseBatch, int64(len(part)))
	}

	// The kernel has seen the fresh children of every directory in the
	// batch; say so before any lock drops, or an unlink could still recycle
	// one.
	for _, mi := range s.known {
		mi.fresh.Store(false)
	}
	for i, q := range batch {
		r := res[i]
		if r.Err != nil && err == nil {
			err = r.Err
		}
		if unsync {
			continue
		}
		if r.Err == nil {
			// The returned mapping also covers inodes this LibFS built
			// itself and never mapped (mapping == nil until now).
			if r.Mapping != nil {
				q.mi.mapping.Store(r.Mapping)
			}
			q.mi.dir.Load().markVerified()
			q.mi.file.Load().markVerified()
		}
		q.mi.released.Store(true)
		if q.unlockBuckets != nil {
			q.unlockBuckets()
		}
		q.mi.lock.Unlock()
	}
	clear(batch)
	clear(s.known)
	clear(res)
	s.batch, s.known, s.inos, s.res = batch[:0], s.known[:0], inos[:0], res[:0]
	return err
}

// ReleaseAll returns every held inode to the kernel in Rule-1-compatible
// order (parents before children, so fresh children become pending at
// their parent's release and commit at their own). It returns the first
// error encountered, after attempting everything.
func (fs *FS) ReleaseAll() (err error) {
	// One call at a time: a release holds the locks of its whole batch, in
	// an order computed from parent pointers a concurrent rename may move.
	fs.relMu.Lock()
	defer fs.relMu.Unlock()
	// One span per call, on a lane of the FS's own (a release has no
	// thread): a slow ReleaseAll shows its crossings and compactions in a
	// flight record.
	if fs.relLane == nil && fs.tracer.Enabled() {
		fs.relLane = fs.tracer.NewLocal()
	}
	sp := fs.relLane.Begin(fsapi.OpRelease, int64(fs.app))
	defer func() { fs.relLane.End(sp, err) }()
	compactions := fs.Stats.DirCompactions.Load()

	// Quiesce the data plane before handing ownership back: retired
	// pages and inode numbers parked behind grace periods land in the
	// allocator pools now, so resource reuse from here on does not depend
	// on when a background grace period happened to end — the crashmc
	// determinism gate compares whole device images, which makes
	// allocation order part of the invariant, not just the persist
	// schedule.
	fs.dom.Barrier()
	fs.quiesceHeld(&fs.rel, sp)
	err = fs.releaseBatch(&fs.rel, sp)
	fs.ws.endHold()
	if fs.Stats.DirCompactions.Load() != compactions {
		// Same reason as the Barrier above: pages a compaction retired must
		// be back in the pool when ReleaseAll returns.
		fs.dom.Barrier()
	}
	return err
}

// quiesceHeld quiesces every held inode into s.batch, in the order
// ReleaseAll hands them back: parents before children (LibFS Rule 1), ties
// by inode number. Release order decides the persist schedule the
// crash-state enumeration sees, so it must be deterministic: the inode
// table ranges in inode order, but fresh children join a level in their
// parent's hash-table order, so each level is sorted before it is quiesced.
//
// What is held comes from two places that cannot overlap. Inodes the
// kernel knows are read off the inode table: each can be handed back on
// its own. A fresh inode can only go with its parent — the parent's
// verification is what connects it to the root, and reads its record — so
// fresh inodes are read off their parent's hash table once the parent is
// quiesced: creating one needs a bucket lock of a held parent, so none
// appears later, and none is listed whose parent is not in the batch ahead
// of it. The lock order is therefore parent mi.lock, parent buckets, child
// mi.lock: the order an unlink takes the two it needs. Nothing else waits
// for a second inode's lock with a first in hand (a rename backs off, see
// pinDirs).
func (fs *FS) quiesceHeld(s *releaseScratch, sp *span.Span) {
	// ArckFS as shipped stills nothing, so it reads everything off the
	// inode table.
	unsync := fs.opts.Bugs.Has(BugReleaseUnsync)
	for d := range s.levels {
		s.levels[d] = s.levels[d][:0]
	}
	add := func(mi *minode, depth int) {
		for len(s.levels) <= depth {
			s.levels = append(s.levels, nil)
		}
		s.levels[depth] = append(s.levels[depth], mi)
	}
	fs.inodes.Range(func(mi *minode) bool {
		if mi.released.Load() || (mi.fresh.Load() && !unsync) {
			return true
		}
		depth := 0
		for cur := mi.ino; cur != layout.RootIno && depth < 1024; depth++ {
			p := fs.inodes.Load(cur)
			if p == nil {
				break
			}
			cur = p.parent.Load()
		}
		add(mi, depth)
		return true
	})
	for d := 0; d < len(s.levels); d++ {
		level := s.levels[d]
		slices.SortFunc(level, func(a, b *minode) int { return cmp.Compare(a.ino, b.ino) })
		for _, mi := range level {
			q, ok := fs.quiesce(mi, sp)
			if !ok {
				continue
			}
			s.batch = append(s.batch, q)
			if q.unlockBuckets == nil {
				continue
			}
			mi.ht().EachLocked(func(e *htable.Entry) {
				if c := fs.inodes.Load(e.Ino); c != nil && c.fresh.Load() {
					s.known = append(s.known, c)
					add(c, d+1)
				}
			})
		}
		clear(level)
	}
}
