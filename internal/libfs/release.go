package libfs

import (
	"sort"

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
		fs.markChildrenKnown(map[uint64]bool{pIno: true})
	}
	// Pending -> committed (or a re-verification of an already committed
	// inode, which also refreshes the kernel's baseline snapshot).
	return fs.commitCrossing(t, mi.ino)
}

// commitCrossing commits ino in a Transfer of one, with span attribution.
func (fs *FS) commitCrossing(t *Thread, ino uint64) error {
	c := fs.cross(t.CurrentSpan())
	err := fs.ctrl.Transfer(fs.app, []uint64{ino}, kernel.XferCommit, t.sink())[0].Err
	c.done(telemetry.SpanEvCrossing, int64(telemetry.EvCommit))
	if v, ok := fs.mtab.Load(ino); ok && err == nil {
		mi := v.(*minode)
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

// markChildrenKnown clears the fresh flag on every cached minode whose
// parent is in dirs: the kernel has now seen them, so their resources are
// no longer locally recyclable. One pass over the table, however many
// directories were just transferred.
func (fs *FS) markChildrenKnown(dirs map[uint64]bool) {
	if len(dirs) == 0 {
		return
	}
	fs.mtab.Range(func(_, v any) bool {
		mi := v.(*minode)
		if dirs[mi.parent.Load()] {
			mi.fresh.Store(false)
		}
		return true
	})
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
	v, ok := fs.mtab.Load(ino)
	if !ok {
		c := fs.cross(nil) // no operation pays for it: no span
		err := fs.ctrl.Transfer(fs.app, []uint64{ino}, kernel.XferRelease, nil)[0].Err
		c.done(telemetry.SpanEvReleaseBatch, 1)
		return err
	}
	var batch []quiesced
	if q, ok := fs.quiesce(v.(*minode), nil); ok {
		batch = append(batch, q)
	}
	return fs.releaseBatch(batch, nil)
}

// quiesced is one inode of a release batch with the locks that hold it
// still.
type quiesced struct {
	mi            *minode
	unlockBuckets func() // nil for files
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
		fs.mtab.Delete(mi.ino)
		return q, true
	}
	mi.lock.Lock()
	if cur, cached := fs.mtab.Load(mi.ino); mi.released.Load() || !cached || cur != mi {
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

// releaseBatch hands a quiesced batch — parents before children — to the
// kernel, one crossing per kernel.MaxReleaseBatch inodes, then publishes
// every verdict and drops the locks. It returns the first error, after
// releasing everything.
func (fs *FS) releaseBatch(batch []quiesced, sp *span.Span) (err error) {
	unsync := fs.opts.Bugs.Has(BugReleaseUnsync)
	inos := make([]uint64, len(batch))
	dirs := make(map[uint64]bool)
	for i, q := range batch {
		inos[i] = q.mi.ino
		if q.mi.typ == layout.TypeDir {
			dirs[q.mi.ino] = true
		}
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
	res := make([]kernel.Released, 0, len(inos))
	for lo := 0; lo < len(inos); lo += kernel.MaxReleaseBatch {
		part := inos[lo:min(lo+kernel.MaxReleaseBatch, len(inos))]
		c := fs.cross(sp)
		res = append(res, fs.ctrl.Transfer(fs.app, part, kind, sink)...)
		c.done(telemetry.SpanEvReleaseBatch, int64(len(part)))
	}

	// The kernel has seen the children of every directory in the batch;
	// say so before any lock drops, or an unlink could still recycle one.
	fs.markChildrenKnown(dirs)
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
	err = fs.releaseBatch(fs.quiesceHeld(sp), sp)
	fs.ws.endHold()
	if fs.Stats.DirCompactions.Load() != compactions {
		// Same reason as the Barrier above: pages a compaction retired must
		// be back in the pool when ReleaseAll returns.
		fs.dom.Barrier()
	}
	return err
}

// quiesceHeld quiesces every held inode in the order ReleaseAll hands them
// back: parents before children (LibFS Rule 1), ties by inode number —
// the inode table is a sync.Map whose Range order varies run to run, and
// release order decides the persist schedule the crash-state enumeration
// sees, so it must be deterministic.
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
func (fs *FS) quiesceHeld(sp *span.Span) []quiesced {
	// ArckFS as shipped stills nothing, so it reads everything off the
	// inode table.
	unsync := fs.opts.Bugs.Has(BugReleaseUnsync)
	var levels [][]*minode // levels[d]: what is held d steps below the root
	add := func(mi *minode, depth int) {
		for len(levels) <= depth {
			levels = append(levels, nil)
		}
		levels[depth] = append(levels[depth], mi)
	}
	fs.mtab.Range(func(_, v any) bool {
		mi := v.(*minode)
		if mi.released.Load() || (mi.fresh.Load() && !unsync) {
			return true
		}
		depth := 0
		for cur := mi.ino; cur != layout.RootIno && depth < 1024; depth++ {
			pv, ok := fs.mtab.Load(cur)
			if !ok {
				break
			}
			cur = pv.(*minode).parent.Load()
		}
		add(mi, depth)
		return true
	})
	var batch []quiesced
	for d := 0; d < len(levels); d++ {
		level := levels[d]
		sort.Slice(level, func(i, j int) bool { return level[i].ino < level[j].ino })
		for _, mi := range level {
			q, ok := fs.quiesce(mi, sp)
			if !ok {
				continue
			}
			batch = append(batch, q)
			if q.unlockBuckets == nil {
				continue
			}
			mi.ht().EachLocked(func(e *htable.Entry) {
				if v, ok := fs.mtab.Load(e.Ino); ok && v.(*minode).fresh.Load() {
					add(v.(*minode), d+1)
				}
			})
		}
	}
	return batch
}
