package libfs

import (
	"arckfs/internal/fsapi"
	"arckfs/internal/htable"
	"arckfs/internal/layout"
)

// This file implements an example of Trio's headline capability beyond
// raw speed: unprivileged, per-application customization of the file
// system (§2.1/§2.2 of the paper discuss two such customizations of
// ArckFS). Because the LibFS owns its auxiliary state and its persistence
// schedule — and the verifier only ever inspects the core state at
// ownership transfer — an application can re-batch persistence barriers
// however it likes without any kernel change and without weakening the
// integrity guarantees other applications observe.
//
// CreateBatch creates N empty files in one directory paying two fences
// total instead of two fences per file: all inode records and dentry
// bodies are flushed under one barrier, then all commit markers under a
// second. Crash-wise each entry remains individually atomic (its marker
// cannot persist before its body), so recovery sees some subset of the
// batch, every member intact — the same per-entry guarantee individual
// creates give, at a fraction of the ordering cost. This mirrors the
// "bulk creation" style customization for ingest-heavy workloads.

// CreateBatch creates every name in names (which must be distinct) as an
// empty file under dir. It returns the number of files created; on error
// the first err is returned and earlier files of the batch remain
// created, each whole: a name that is not valid fails the batch before
// anything is written, and a later failure commits what came before it.
func (t *Thread) CreateBatch(dir string, names []string) (n int, err error) {
	defer t.endOp(t.beginOp(fsapi.OpBatch), &err)
	fs := t.fs
	dmi, err := t.resolve(dir)
	if err != nil {
		return 0, err
	}
	if dmi.typ != layout.TypeDir {
		return 0, fsapi.ErrNotDir
	}

	for _, name := range names {
		if !layout.ValidName(name) {
			return 0, fsapi.ErrInval
		}
	}

	var pending []pendingCreate

	// Pass 1: write every inode record and dentry body, flushing but not
	// fencing — the §4.2 protocol's step 1 for the whole batch.
	for _, name := range names {
		var ino uint64
		if ino, err = fs.allocIno(t); err != nil {
			break
		}
		in := layout.Inode{
			Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite,
			Nlink: 1, Parent: dmi.ino, MTime: fs.now(),
		}
		t.streamInode(ino, &in)

		// The slot, the flushed body and the table entry, under name's
		// bucket lock, the way insertEntry takes it.
		var ref layout.DentryRef
		err = fs.locked(t, dmi, dirLock{bucket: name}, func(ds *dirState, lb htable.LockedBucket) (err error) {
			if _, exists := lb.Get(name); exists {
				return fsapi.ErrExist
			}
			if ref, err = fs.reserveDentry(t, dmi, ds, len(name)); err == nil {
				layout.WriteDentryBody(fs.dev, ref, ino, name)
				fs.persistDentryBody(t.pb, ref, len(name))
				lb.Insert(name, ino, uint64(ref))
			}
			return err
		})
		if err != nil {
			fs.recycleIno(ino)
			break
		}
		pending = append(pending, pendingCreate{name, ino, ref})
	}
	// Commit and register what was written, before reporting any error.
	fs.commitBatch(t, pending)
	for _, pc := range pending {
		fs.inodes.Store(pc.ino, newFileMinode(pc.ino, dmi.ino, fs.clock.Load()))
	}
	t.cacheDirAttrs(dmi, fs.clock.Load())
	return len(pending), err
}

type pendingCreate struct {
	name string
	ino  uint64
	ref  layout.DentryRef
}

// commitBatch ends the batch's body epoch, then sets and persists every
// commit marker under a single final barrier.
func (fs *FS) commitBatch(t *Thread, pending []pendingCreate) {
	if len(pending) == 0 {
		// Nothing committed, but pass 1 may have queued body lines for an
		// entry that then failed aux insertion; write them back.
		t.pb.Drain()
		return
	}
	// Order every body and inode write-back before any marker can
	// persist (the §4.2 fence, shared by the whole batch).
	t.pb.Barrier()
	for _, pc := range pending {
		layout.CommitDentry(fs.dev, pc.ref, len(pc.name))
		t.pb.Flush(pc.ref.MarkerOff(), 2)
	}
	t.pb.Barrier()
}
