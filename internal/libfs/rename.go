package libfs

import (
	"runtime"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/telemetry"
)

// Rename moves oldPath to newPath. The destination must not exist.
//
// ArckFS+ follows the paper's multi-inode rules for directory relocation:
// the global rename lease and a descendant check (§4.6), and commits of
// the new parent both before (Rule 3) and after (Rule 2) the move so the
// verifier can tell the relocation from a deletion (§4.1). ArckFS as
// shipped performs only the persistent and auxiliary moves.
func (t *Thread) Rename(oldPath, newPath string) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpRename), &err)
	fs := t.fs
	oldDir, oldName, err := t.resolveParent(oldPath, true)
	if err != nil {
		return err
	}
	newDir, newName, err := t.resolveParent(newPath, true)
	if err != nil {
		return err
	}
	childIno, _, ok, err := fs.lookupInDir(t, oldDir, oldName)
	if err != nil {
		return err
	}
	if !ok {
		return fsapi.ErrNotExist
	}
	// A cross-directory move rewrites the child's inode record, so hold
	// the child with write intent (re-acquiring it if released).
	child, err := fs.getMinode(t, childIno, true)
	if err != nil {
		return err
	}
	isDir := child.typ == layout.TypeDir
	crossDir := oldDir.ino != newDir.ino

	protectedDirMove := isDir && crossDir && !fs.opts.Bugs.Has(BugNoCycleCheck)
	if protectedDirMove {
		// §4.6 patch, case 1: serialize cross-directory directory renames
		// through the kernel's global lease. The lease is held by the
		// application, and an application's second acquire succeeds at
		// once, so it excludes other LibFSes only; this LibFS's own
		// threads queue on renameMu first.
		fs.renameMu.Lock()
		defer fs.renameMu.Unlock()
		c := fs.cross(t.CurrentSpan())
		err = fs.ctrl.RenameLockAcquire(fs.app)
		c.done(telemetry.SpanEvCrossing, int64(telemetry.EvRenameLockAcquire))
		if err != nil {
			return err
		}
		defer func() {
			c := fs.cross(t.CurrentSpan())
			fs.ctrl.RenameLockRelease(fs.app)
			c.done(telemetry.SpanEvCrossing, int64(telemetry.EvRenameLockRelease))
		}()
		// §4.6 patch, case 2: refuse renaming a directory into itself or
		// one of its own descendants.
		if fs.isAncestor(child, newDir) {
			return fsapi.ErrInval
		}
	}
	fs.dev.Killpoint(siteRenameAfterCheck)

	verifiedReloc := isDir && crossDir && !fs.opts.Bugs.Has(BugRenameVerify)
	// A file the kernel knows is relocated the same way, the child and the
	// old parent being known already: without the new parent's commits a
	// release that reaches the old parent first reads the move as an unlink,
	// and the new parent's entry then links an unknown inode.
	knownFile := !isDir && crossDir && !child.fresh.Load() && !fs.opts.Bugs.Has(BugRenameVerify)
	if verifiedReloc || (knownFile && newDir.fresh.Load()) {
		// Rule 3: commit the new parent before performing the rename (it
		// may be newly created; the commit chain connects it to the
		// root).
		if err := fs.ensureCommitted(t, newDir); err != nil {
			return err
		}
	}
	if verifiedReloc {
		// The child must be known to the kernel for the relocation to be
		// verifiable.
		if err := fs.ensureCommitted(t, child); err != nil {
			return err
		}
		if err := fs.ensureCommitted(t, oldDir); err != nil {
			return err
		}
	}

	// The persistent and auxiliary moves, with both directories pinned: in
	// between them the child is linked twice, which no release may see.
	if err := fs.pinDirs(t, oldDir, newDir); err != nil {
		return err
	}
	defer unpinDirs(oldDir, newDir)
	if _, err := fs.insertEntry(t, newDir, childIno, newName, nil); err != nil {
		return err
	}
	if _, err := fs.removeEntry(t, oldDir, oldName, 0, nil); err != nil {
		// Roll the insertion back to keep aux state consistent.
		_, _ = fs.removeEntry(t, newDir, newName, 0, nil)
		return err
	}
	if crossDir {
		fs.rewriteParent(t, child, newDir.ino)
	}

	if verifiedReloc || knownFile {
		// Rule 2 (§4.1 patch): commit the new parent before the old
		// parent can be committed or released; this is the per-operation
		// verification that advances the child's shadow parent pointer.
		if err := fs.commitCrossing(t, newDir.ino); err != nil {
			return fs.unmove(t, child, oldDir, oldName, newDir, newName, err)
		}
	}
	return nil
}

// pinDirs takes a's and b's inode locks shared, with both directories
// held; unpinDirs drops them. A release takes the lock exclusively, so
// until then it cannot hand either directory back. pinDirs never waits for
// the second lock with the first in hand: ReleaseAll holds many of these
// at once, in an order of its own. While the pins are in place
// the locked accessor's second look cannot fail — a release or a rebuild needs
// the lock exclusively — so nothing under them tries to take it.
func (fs *FS) pinDirs(t *Thread, a, b *minode) error {
	for {
		for _, d := range [...]*minode{a, b} {
			if d.released.Load() {
				if err := fs.reacquire(t, d); err != nil {
					return err
				}
			}
		}
		a.lock.RLock()
		if a != b && !b.lock.TryRLock() {
			a.lock.RUnlock()
			runtime.Gosched()
			a, b = b, a
			continue
		}
		if !a.released.Load() && !b.released.Load() {
			return nil
		}
		// unpinDirs, spelled out so that lockorder sees both locks
		// dropped before the next round's RLock.
		a.lock.RUnlock()
		if a != b {
			b.lock.RUnlock()
		}
	}
}

func unpinDirs(a, b *minode) {
	a.lock.RUnlock()
	if a != b {
		b.lock.RUnlock()
	}
}

// rewriteParent updates child's inode-record parent pointer and persists
// it (streamed: the whole record rewrites in one epoch).
func (fs *FS) rewriteParent(t *Thread, child *minode, newParent uint64) {
	in, ok, _ := layout.ReadInode(fs.dev, fs.geo, child.ino)
	if !ok {
		return
	}
	in.Parent = newParent
	t.streamInode(child.ino, &in)
	t.pb.Barrier()
	child.parent.Store(newParent)
}

// isAncestor reports whether anc is node or one of node's ancestors in
// this LibFS's view of the tree.
func (fs *FS) isAncestor(anc, node *minode) bool {
	cur := node.ino
	for depth := 0; depth < 512; depth++ {
		if cur == anc.ino {
			return true
		}
		if cur == layout.RootIno {
			return false
		}
		if mi := fs.inodes.Load(cur); mi != nil {
			cur = mi.parent.Load()
			continue
		}
		in, ok, _ := layout.ReadInode(fs.dev, fs.geo, cur)
		if !ok {
			return false
		}
		cur = in.Parent
	}
	// Depth bound exceeded: an existing cycle; refuse the operation.
	return true
}

// unmove undoes a cross-directory move whose Rule 2 commit failed with
// err, which it returns: uncommitted, the move would read as an unlink to
// a release that reaches the old parent first. The old name goes back
// first, as the forward move inserts before it removes; should that fail
// too, the move stays.
func (fs *FS) unmove(t *Thread, child, oldDir *minode, oldName string, newDir *minode, newName string, err error) error {
	if _, ierr := fs.insertEntry(t, oldDir, child.ino, oldName, nil); ierr == nil {
		_, _ = fs.removeEntry(t, newDir, newName, 0, nil)
		fs.rewriteParent(t, child, oldDir.ino)
	}
	return err
}
