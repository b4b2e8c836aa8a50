package libfs

import (
	"sort"

	"arckfs/internal/fsapi"
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
		fs.markChildrenKnown(pIno)
	}
	// Pending -> committed (or a re-verification of an already committed
	// inode, which also refreshes the kernel's baseline snapshot).
	return fs.commitCrossing(t, mi.ino)
}

// commitCrossing performs a Commit syscall with span attribution.
func (fs *FS) commitCrossing(t *Thread, ino uint64) error {
	begin := t.crossStart()
	err := fs.ctrl.CommitObserved(fs.app, ino, t.sink())
	t.crossEnd(telemetry.EvCommit, begin)
	if v, ok := fs.mtab.Load(ino); ok && err == nil {
		v.(*minode).dir.Load().markVerified()
	}
	return err
}

// markVerified records that the kernel has verified the directory (a
// successful Commit or Release): every log page linked so far is now
// inode-owned. A page a concurrent append links while the crossing is in
// flight is forgotten with the rest even if the kernel's parse missed it;
// should compaction later unlink it, it stays granted-but-idle until the
// app unregisters — the safe side, since handing the pool a page the
// kernel did adopt would fail the next verification that links it.
func (ds *dirState) markVerified() {
	if ds == nil {
		return
	}
	ds.idxMu.Lock()
	ds.unverified = nil
	ds.idxMu.Unlock()
}

// markChildrenKnown clears the fresh flag on every cached minode whose
// parent is dirIno: the kernel has now seen them, so their resources are
// no longer locally recyclable.
func (fs *FS) markChildrenKnown(dirIno uint64) {
	fs.mtab.Range(func(_, v any) bool {
		mi := v.(*minode)
		if mi.parent.Load() == dirIno {
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

// ReleaseInode voluntarily returns ino to the kernel.
//
// ArckFS+ (§4.3 patch): the releasing thread first acquires the inode's
// write lock and every bucket lock of its hash table, so no other thread
// can be mid-operation when the mapping is torn down; the auxiliary state
// and the locks are retained, and readers keep using the cached in-memory
// inode afterwards.
//
// ArckFS as shipped: the release happens with no synchronization at all —
// another thread inside an operation dereferences the unmapped core
// state and crashes (the simulated bus error).
func (fs *FS) ReleaseInode(ino uint64) error { return fs.releaseInode(ino, nil) }

// releaseInode is ReleaseInode reporting LibFS-side release work to the
// caller's span (nil-safe).
func (fs *FS) releaseInode(ino uint64, sp *span.Span) error {
	v, ok := fs.mtab.Load(ino)
	if !ok {
		return fs.ctrl.Release(fs.app, ino)
	}
	mi := v.(*minode)
	if mi.released.Load() {
		return nil
	}
	if fs.opts.Bugs.Has(BugReleaseUnsync) {
		// No quiescing: concurrent threads crash on the revoked mapping.
		fs.mtab.Delete(ino)
		err := fs.ctrl.Release(fs.app, ino)
		fs.markChildrenKnown(ino)
		return err
	}
	mi.lock.Lock()
	var unlockAll func()
	if ds := mi.dir.Load(); ds != nil {
		unlockAll = ds.ht.LockAll()
		// The directory is quiescent: hand back live entries, not history.
		fs.compactDir(mi, sp)
	}
	var err error
	if fs.opts.NoLeases {
		err = fs.ctrl.Release(fs.app, ino)
	} else {
		// Leased release: the kernel verifies and applies exactly as a
		// plain release, but keeps the mapping alive in a dormant state
		// so a later reacquire can win it back without a crossing. The
		// returned mapping also covers inodes this LibFS built itself
		// and never mapped (mi.mapping == nil until now).
		var m *kernel.Mapping
		m, err = fs.ctrl.ReleaseLeased(fs.app, ino)
		if err == nil && m != nil {
			mi.mapping.Store(m)
		}
	}
	mi.released.Store(true)
	if err == nil {
		mi.dir.Load().markVerified()
	}
	if unlockAll != nil {
		unlockAll()
	}
	mi.lock.Unlock()
	if mi.typ == layout.TypeDir {
		fs.markChildrenKnown(ino)
	}
	return err
}

// ReleaseAll returns every held inode to the kernel in Rule-1-compatible
// order (parents before children, so fresh children become pending at
// their parent's release and commit at their own). It returns the first
// error encountered, after attempting everything.
func (fs *FS) ReleaseAll() (err error) {
	// One span per call, on a lane of the FS's own (a release has no
	// thread): a slow ReleaseAll shows its compactions in a flight record.
	// Only Begin needs the lane to itself.
	fs.relMu.Lock()
	if fs.relLane == nil && fs.tracer.Enabled() {
		fs.relLane = fs.tracer.NewLocal()
	}
	lane := fs.relLane
	sp := lane.Begin(fsapi.OpRelease, int64(fs.app))
	fs.relMu.Unlock()
	defer func() { lane.End(sp, err) }()
	compactions := fs.Stats.DirCompactions.Load()

	// Quiesce the data plane before handing ownership back: retired
	// pages and inode numbers parked behind grace periods land in the
	// allocator pools now, so resource reuse from here on is identical
	// under both read disciplines — the crashmc equivalence gate compares
	// whole device images, which makes allocation order part of the
	// invariant, not just the persist schedule.
	fs.dom.Barrier()
	type ent struct {
		mi    *minode
		depth int
	}
	var ents []ent
	fs.mtab.Range(func(_, v any) bool {
		mi := v.(*minode)
		if mi.released.Load() {
			return true
		}
		depth := 0
		for cur := mi.ino; cur != layout.RootIno && depth < 1024; depth++ {
			if pv, ok := fs.mtab.Load(cur); ok {
				cur = pv.(*minode).parent.Load()
			} else {
				break
			}
		}
		ents = append(ents, ent{mi, depth})
		return true
	})
	// Total order: depth ties broken by inode number, because mtab is a
	// sync.Map whose Range order varies run to run — and release order
	// decides the persist schedule the crash-state enumeration sees, so
	// it must be deterministic.
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].depth != ents[j].depth {
			return ents[i].depth < ents[j].depth
		}
		return ents[i].mi.ino < ents[j].mi.ino
	})
	for _, e := range ents {
		if rerr := fs.releaseInode(e.mi.ino, sp); rerr != nil && err == nil {
			err = rerr
		}
	}
	if fs.Stats.DirCompactions.Load() != compactions {
		// Same reason as the Barrier above: pages a compaction retired must
		// be back in the pool when ReleaseAll returns, whichever read
		// discipline parked them.
		fs.dom.Barrier()
	}
	return err
}
