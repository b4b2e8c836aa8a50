package libfs

import (
	"sort"

	"arckfs/internal/fsapi"
	"arckfs/internal/htable"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// resolve walks path to its minode.
func (t *Thread) resolve(path string) (*minode, error) {
	mi, err := t.fs.getMinode(t, layout.RootIno, false)
	if err != nil {
		return nil, err
	}
	depth := 0
	for c := fsapi.Walk(path); c.Next(); depth++ {
		if depth > 512 {
			return nil, fsapi.ErrLoop
		}
		name := c.Name()
		if mi.typ != layout.TypeDir {
			return nil, fsapi.ErrNotDir
		}
		ino, _, ok, err := t.fs.lookupInDir(t, mi, name)
		if err != nil {
			return nil, err
		}
		if !ok && mi.released.Load() {
			// The cached aux state of a released directory can be stale
			// (a peer may have modified the directory since): revalidate
			// a miss by re-acquiring once. Hits stay cache-served — the
			// §4.3 patch's fast path.
			if err := t.fs.reacquire(t, mi); err == nil {
				ino, _, ok, err = t.fs.lookupInDir(t, mi, name)
				if err != nil {
					return nil, err
				}
			}
		}
		if !ok {
			return nil, fsapi.ErrNotExist
		}
		mi, err = t.fs.getMinode(t, ino, false)
		if err != nil {
			return nil, err
		}
	}
	return mi, nil
}

// resolveParent walks to path's parent directory and returns it with the
// final component. write re-acquires a released parent for mutation.
func (t *Thread) resolveParent(path string, write bool) (*minode, string, error) {
	dir, name := fsapi.SplitPath(path)
	if name == "" {
		return nil, "", fsapi.ErrInval
	}
	if len(name) > layout.MaxName {
		return nil, "", fsapi.ErrNameTooLong
	}
	if !layout.ValidName(name) {
		return nil, "", fsapi.ErrInval
	}
	mi, err := t.resolve(dir)
	if err != nil {
		return nil, "", err
	}
	if mi.typ != layout.TypeDir {
		return nil, "", fsapi.ErrNotDir
	}
	if write {
		if mi.released.Load() {
			if err := t.fs.reacquire(t, mi); err != nil {
				return nil, "", err
			}
		} else if mi.unmapped() {
			// A trust-group peer (or an involuntary release) took the
			// inode; the patched LibFS re-acquires, ArckFS crashes.
			if err := t.fs.remap(t, mi); err != nil {
				return nil, "", err
			}
		}
	}
	return mi, name, nil
}

// persistDentryBody is step 1 of the atomic-commit protocol: queue a
// flush for every cache line of the record except the one holding the
// commit marker (that line is persisted exactly once, by step 2 — the
// artifact's flush-count optimization that footnote 3 describes). The
// queued lines are written back at the caller's next Barrier.
func (fs *FS) persistDentryBody(b *pmem.Batch, r layout.DentryRef, nameLen int) {
	start := r.DevOff()
	end := start + int64(layout.DentryRecLen(nameLen))
	markerLine := r.MarkerOff() / pmem.LineSize * pmem.LineSize
	for line := start / pmem.LineSize * pmem.LineSize; line < end; line += pmem.LineSize {
		if line != markerLine {
			b.Flush(line, pmem.LineSize)
		}
	}
}

// appendDentry writes a committed dentry for (childIno, name) into mi's
// log — a dead slot of the record's length if ds lists one, else the end
// of one of its tails — honoring the §4.2 and §4.3 settings. ds is mi's
// directory state the caller found mi held under. The §4.2 patch is the
// single Barrier between the body epoch and the marker update: the new
// child's inode record (streamed by the caller before this call) and the
// dentry body all become durable before the commit marker can possibly
// persist. The marker line is queued only after that Barrier — it must
// never merge into the body epoch. A dead slot's marker is already zero
// and durable, and its record length is the one written again, so until
// the marker persists a crash finds the slot dead, whatever of the new
// body it kept.
func (fs *FS) appendDentry(t *Thread, mi *minode, ds *dirState, childIno uint64, name string) (layout.DentryRef, error) {
	ti := t.cpu % len(ds.tails)
	tc := &ds.tails[ti]
	tc.mu.Lock()
	defer tc.mu.Unlock()

	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	fs.dev.Killpoint(siteDirWriteInProgress) // the mapping may be torn down here

	r, reused, err := fs.takeSlot(t, ds, ti, tc, len(name))
	if err != nil {
		return 0, err
	}
	if err := fs.checkMapped(mi); err != nil {
		if reused {
			ds.addDead(r, len(name))
		}
		return 0, err
	}
	fs.persistDentry(t, r, childIno, name)
	if !reused {
		tc.advance(len(name))
	}
	return r, nil
}

// takeSlot returns where a record for a name of nameLen bytes goes: a dead
// slot of exactly its length when ds lists one (reused), else the tail
// cursor, linking log pages as needed. The cursor moves only when the
// caller advances it past an appended record. Caller holds the tail lock.
func (fs *FS) takeSlot(t *Thread, ds *dirState, ti int, tc *tailCursor, nameLen int) (r layout.DentryRef, reused bool, err error) {
	ds.idxMu.Lock()
	r, reused = ds.dead.pop(layout.DentryRecLen(nameLen))
	ds.idxMu.Unlock()
	if reused {
		return r, true, nil
	}
	if err := fs.ensureTailSpace(t, ds, ti, tc, nameLen); err != nil {
		return 0, false, err
	}
	return layout.MakeDentryRef(tc.page, tc.off), false, nil
}

// advance moves the cursor past the record just appended for a name of
// nameLen bytes. Caller holds the tail lock.
func (tc *tailCursor) advance(nameLen int) {
	tc.off += layout.DentryRecLen(nameLen)
	tc.slots++
}

// verifiedPageFull is the fill past which an append links a fresh page
// instead of joining names a verification already read: each hold's young
// names then land apart from survivors, and a page left behind is at least
// half used, so the log takes at most twice the pages packed appends would.
const verifiedPageFull = layout.LogDataSize / 2

// ensureTailSpace points the tail cursor at a slot that fits a record
// for a name of nameLen bytes, linking a fresh log page when the tail has
// none, when the record does not fit, or when the kernel has verified a
// tail page that is at least half full. Caller holds the tail lock.
func (fs *FS) ensureTailSpace(t *Thread, ds *dirState, ti int, tc *tailCursor, nameLen int) error {
	if tc.page != 0 && layout.DentryFits(tc.off, nameLen) &&
		(tc.linked.Load() || tc.off < verifiedPageFull) {
		return nil
	}
	p, err := fs.newLogPage(t)
	if err != nil {
		return err
	}
	ds.idxMu.Lock()
	if tc.page == 0 {
		layout.SetTailHead(fs.dev, ds.tailset, ti, p)
		t.pb.Flush(layout.TailHeadOff(ds.tailset, ti), 8)
	} else {
		layout.SetNextPage(fs.dev, tc.page, p)
		t.pb.Flush(int64(tc.page*layout.PageSize)+layout.NextPtrOff, 8)
	}
	t.pb.Barrier()
	ds.unverified = append(ds.unverified, p)
	tc.linked.Store(true)
	ds.idxMu.Unlock()
	tc.page, tc.off = p, 0
	return nil
}

// newLogPage allocates and zeroes a log page so scans terminate at its
// frontier. The zeroes are streamed (no per-line write-backs) and fenced
// before the caller links the page.
func (fs *FS) newLogPage(t *Thread) (uint64, error) {
	p, err := fs.allocPage(t, t.cpu)
	if err != nil {
		return 0, err
	}
	t.pb.ZeroStream(int64(p*layout.PageSize), layout.PageSize)
	t.pb.Barrier()
	return p, nil
}

// insertEntry links (childIno, name) into mi, placing the persistent
// update inside (patched, §4.4) or outside (buggy) the bucket critical
// section. child, when the entry creates an inode, is published in the
// inode table inside that section too: a release of mi — which needs every
// bucket lock — then finds either no entry and no child, or both. It
// returns the new record's ref.
func (fs *FS) insertEntry(t *Thread, mi *minode, childIno uint64, name string, child *minode) (layout.DentryRef, error) {
	if fs.opts.Bugs.Has(BugAuxCoreRace) {
		// ArckFS as shipped: reserve log space, publish the name in
		// auxiliary state, and only then write the core record — with no
		// common critical section. In the window after the insert, the
		// name is visible while its core data does not exist yet.
		ds := mi.dir.pinned(fs.dev, nil)
		r, err := fs.reserveDentry(t, mi, ds, len(name))
		if err != nil {
			return 0, err
		}
		if !ds.ht.Insert(name, childIno, uint64(r)) {
			// Name exists; the reserved record stays a dead slot, for the
			// next create of its length to fill.
			ds.addDead(r, len(name))
			return 0, fsapi.ErrExist
		}
		fs.dev.Killpoint(siteCreateBetweenAuxAndCore)
		if err := fs.fillDentry(t, mi, r, childIno, name); err != nil {
			ds.ht.Delete(name)
			return 0, err
		}
		if child != nil {
			fs.inodes.Store(childIno, child)
		}
		return r, nil
	}
	// ArckFS+: the bucket lock covers both updates.
	var r layout.DentryRef
	err := fs.locked(t, mi, dirLock{bucket: name}, func(ds *dirState, lb htable.LockedBucket) error {
		if _, exists := lb.Get(name); exists {
			return fsapi.ErrExist
		}
		var err error
		if r, err = fs.appendDentry(t, mi, ds, childIno, name); err != nil {
			return err
		}
		if child != nil {
			fs.inodes.Store(childIno, child)
		}
		lb.Insert(name, childIno, uint64(r))
		return nil
	})
	return r, err
}

// reserveDentry claims a slot of mi's log for a record (tail lock only),
// a dead one of its length if ds, mi's directory state, lists one: it
// persists the record length so scans skip the slot until it is filled.
// A dead slot holds that length already; it is written again all the same.
func (fs *FS) reserveDentry(t *Thread, mi *minode, ds *dirState, nameLen int) (layout.DentryRef, error) {
	ti := t.cpu % len(ds.tails)
	tc := &ds.tails[ti]
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	r, reused, err := fs.takeSlot(t, ds, ti, tc, nameLen)
	if err != nil {
		return 0, err
	}
	fs.dev.Store16(r.DevOff()+8, uint16(layout.DentryRecLen(nameLen)))
	if !fs.opts.Bugs.Has(BugReserveLenUnflushed) {
		// Queue the write-back here, not just in fillDentry: if the
		// auxiliary insert fails the slot stays reserved-but-dead, and an
		// unflushed record length would read back as 0 after a crash —
		// terminating log scans early and hiding every later entry in the
		// page. The batch dedups the line when fillDentry re-queues it, so
		// the happy path costs no extra flush.
		t.pb.Flush(r.DevOff()+8, 2)
	}
	if !reused {
		tc.advance(nameLen)
	}
	return r, nil
}

// fillDentry writes a reserved record's contents and commits it.
func (fs *FS) fillDentry(t *Thread, mi *minode, r layout.DentryRef, childIno uint64, name string) error {
	if err := fs.checkMapped(mi); err != nil {
		return err
	}
	fs.dev.Killpoint(siteDirWriteInProgress)
	fs.persistDentry(t, r, childIno, name)
	return nil
}

// persistDentry writes record r for (childIno, name) and commits it with
// the two-step marker protocol, §4.2's ordering per the bug flag.
func (fs *FS) persistDentry(t *Thread, r layout.DentryRef, childIno uint64, name string) {
	// Step 1: persist the body with the marker still zero.
	layout.WriteDentryBody(fs.dev, r, childIno, name)
	fs.persistDentryBody(t.pb, r, len(name))
	if !fs.opts.Bugs.Has(BugMissingFence) {
		// The §4.2 patch: end the body epoch — the dentry body (and the
		// streamed inode record) are durable before the commit marker can
		// possibly persist.
		t.pb.Barrier()
	}
	// Step 2: set and persist the commit marker. Its line enters the
	// queue only here, after the body-epoch Barrier.
	//arcklint:allow persistorder the Barrier is skipped only when BugMissingFence deliberately reproduces the §4.2 bug; the patched path barriers above
	layout.CommitDentry(fs.dev, r, len(name))
	t.pb.Flush(r.MarkerOff(), 2)
	// §4.2 crash window: marker flush queued, final fence not yet issued.
	fs.dev.Killpoint("libfs.create.marker")
	t.pb.Barrier()
}

// removeEntry unlinks name from mi and invalidates its persistent
// record, honoring the §4.4 critical-section setting. With want other than
// 0 the patched path refuses, with ErrNotExist, an entry that names
// another inode. doomed, for an entry whose inode goes away with it,
// destroys that inode inside the critical section: a release of mi — which
// needs every bucket lock — then never finds the entry gone and the inode
// still there, in the inode table or half-zeroed on the device. It returns
// the removed child's ino.
func (fs *FS) removeEntry(t *Thread, mi *minode, name string, want uint64, doomed func(ino uint64)) (uint64, error) {
	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	if fs.opts.Bugs.Has(BugAuxCoreRace) {
		ds := mi.dir.pinned(fs.dev, nil)
		ino, ref, ok := ds.ht.Delete(name)
		if !ok {
			return 0, fsapi.ErrNotExist
		}
		if err := fs.checkMapped(mi); err != nil {
			return 0, err
		}
		r := layout.DentryRef(ref)
		if ref == 0 || fs.dev.Load16(r.MarkerOff()) == 0 {
			// The name was visible in auxiliary state but its core
			// record does not exist yet (a creat is mid-flight):
			// dereferencing it segfaults in the artifact.
			return 0, fsapi.ErrSegfault
		}
		layout.InvalidateDentry(fs.dev, r)
		t.pb.Flush(r.MarkerOff(), 2)
		t.pb.Barrier()
		ds.addDead(r, len(name))
		if doomed != nil {
			doomed(ino)
		}
		return ino, nil
	}
	var ino uint64
	err := fs.locked(t, mi, dirLock{bucket: name}, func(ds *dirState, lb htable.LockedBucket) error {
		e, ok := lb.Get(name)
		if !ok || want != 0 && e.Ino != want {
			return fsapi.ErrNotExist
		}
		if err := fs.checkMapped(mi); err != nil {
			return err
		}
		r := layout.DentryRef(e.Ref())
		layout.InvalidateDentry(fs.dev, r)
		t.pb.Flush(r.MarkerOff(), 2)
		t.pb.Barrier()
		ino, _, _ = lb.Delete(name)
		// The tombstone is durable: a create may fill the slot.
		ds.addDead(r, len(name))
		if doomed != nil {
			doomed(ino)
		}
		return nil
	})
	return ino, err
}

// Create makes an empty regular file.
func (t *Thread) Create(path string) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpCreate), &err)
	fs := t.fs
	dir, name, err := t.resolveParent(path, true)
	if err != nil {
		return err
	}
	ino, err := fs.allocIno(t)
	if err != nil {
		return err
	}
	in := layout.Inode{
		Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite,
		Nlink: 1, Parent: dir.ino, MTime: fs.now(),
	}
	// Stream the whole inode record: its durability joins the dentry body
	// under the §4.2 body-epoch Barrier (step 1 of the protocol covers
	// "dentry and inode") without per-line write-backs.
	t.streamInode(ino, &in)
	mi := newFileMinode(ino, dir.ino, in.MTime)
	if _, err := fs.insertEntry(t, dir, ino, name, mi); err != nil {
		fs.recycleIno(ino)
		return err
	}
	t.cacheDirAttrs(dir, in.MTime)
	return nil
}

// Mkdir makes an empty directory.
func (t *Thread) Mkdir(path string) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpMkdir), &err)
	fs := t.fs
	dir, name, err := t.resolveParent(path, true)
	if err != nil {
		return err
	}
	ino, err := fs.allocIno(t)
	if err != nil {
		return err
	}
	tailset, err := fs.allocPage(t, t.cpu)
	if err != nil {
		fs.recycleIno(ino)
		return err
	}
	ntails := fs.ntails
	// Stream-zero the tail-set page, patch in the tail count, and fence —
	// the same ordering point as the unbatched code (the page must be
	// durable before any dentry can commit into it), at one line flush
	// instead of a whole page of them.
	t.pb.ZeroStream(int64(tailset*layout.PageSize), layout.PageSize)
	layout.SetTailCount(fs.dev, tailset, ntails)
	t.pb.Flush(int64(tailset*layout.PageSize), 2)
	t.pb.Barrier()
	in := layout.Inode{
		Type: layout.TypeDir, Perm: layout.PermRead | layout.PermWrite,
		Nlink: 2, Parent: dir.ino, DataRoot: tailset, NTails: uint16(ntails),
		MTime: fs.now(),
	}
	t.streamInode(ino, &in)
	mi := &minode{ino: ino, typ: layout.TypeDir}
	ds := fs.emptyDir(tailset, ntails, 0)
	mi.dir.set(ds)
	mi.parent.Store(dir.ino)
	mi.fresh.Store(true)
	mi.cacheAttrs(0, 2, in.MTime)
	if _, err := fs.insertEntry(t, dir, ino, name, mi); err != nil {
		fs.recycleIno(ino)
		fs.recyclePages(t.cpu, []uint64{tailset})
		// No one saw mi: its state is as emptyDir made it.
		fs.spareDirs.put(ds)
		return err
	}
	t.cacheDirAttrs(dir, in.MTime)
	return nil
}

// Unlink removes a regular file.
func (t *Thread) Unlink(path string) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpUnlink), &err)
	fs := t.fs
	dir, name, err := t.resolveParent(path, true)
	if err != nil {
		return err
	}
	childIno, _, ok, err := fs.lookupInDir(t, dir, name)
	if err != nil {
		return err
	}
	if !ok {
		return fsapi.ErrNotExist
	}
	// Type check straight from the child's inode record, as the artifact
	// does — the child need not be separately acquired to be unlinked.
	if in, inOk, _ := layout.ReadInode(fs.dev, fs.geo, childIno); inOk && in.Type == layout.TypeDir {
		return fsapi.ErrIsDir
	}
	_, err = fs.removeEntry(t, dir, name, 0, func(ino uint64) {
		if child := fs.inodes.LoadAndDelete(ino); child != nil {
			fs.destroyFile(t, child)
		} else {
			// Not in our table: zero the record; the kernel reclaims pages
			// at the directory's next verification.
			layout.FreeInode(fs.dev, fs.geo, ino)
			t.pb.Flush(layout.InodeOff(fs.geo, ino), layout.InodeSize)
			t.pb.Barrier()
		}
	})
	if err != nil {
		return err
	}
	t.cacheDirAttrs(dir, fs.clock.Load())
	return nil
}

// destroyFile tears down an unlinked file, already out of the inode
// table: zero the inode record and recycle what is still the app's. When
// the kernel never learned of the inode that is all of it. Of a committed
// file it is the pages added since the kernel last verified it; the kernel
// frees the rest when it verifies the unlink. Should the kernel have
// revoked the mapping, it verified the file on the way, adopting those
// pages too, and nothing is recycled.
// The resources are retired through the RCU domain, not recycled in
// place: child.lock excludes no reader, so a thread with an open FD can
// be mid-copyOutRange on these very pages, and reuse must wait out its
// read-side section. child itself carries them there (retireInode).
func (fs *FS) destroyFile(t *Thread, child *minode) {
	child.lock.Lock()
	layout.FreeInode(fs.dev, fs.geo, child.ino)
	t.pb.Flush(layout.InodeOff(fs.geo, child.ino), layout.InodeSize)
	t.pb.Barrier()
	st := child.file.Load()
	switch {
	case child.fresh.Load():
		var pages []uint64
		if st != nil {
			pages = append(pages, st.mapPages...)
			arr := st.blockArr()
			for bi := 0; bi < st.nblocks && bi < len(arr); bi++ {
				if b := arr[bi].Load(); b != 0 {
					pages = append(pages, b)
				}
			}
		}
		fs.retireInode(t.cpu, child, pages, child.ino, nil)
	case st != nil && !child.unmapped():
		fs.retireInode(t.cpu, child, st.unverified, 0, nil)
		st.unverified = nil
	}
	child.lock.Unlock()
}

// Rmdir removes an empty directory. It takes its locks in the order a
// rename does, inode locks before bucket locks: the parent's shared
// (pinDirs), the victim's, every bucket lock of the victim's table, and
// last the parent's bucket lock for the name. The victim is found empty
// under its bucket locks, and they are held until removedDir has replaced
// its state, so no create can leave a name in a removed directory.
func (t *Thread) Rmdir(path string) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpRmdir), &err)
	fs := t.fs
	dir, name, err := t.resolveParent(path, true)
	if err != nil {
		return err
	}
	childIno, _, ok, err := fs.lookupInDir(t, dir, name)
	if err != nil {
		return err
	}
	if !ok {
		return fsapi.ErrNotExist
	}
	// Acquire the victim for write: the emptiness decision must run on
	// the live directory, never on auxiliary state retained across a
	// release (a peer may have created or unlinked entries since).
	child, err := fs.getMinode(t, childIno, true)
	if err != nil {
		return err
	}
	if child.typ != layout.TypeDir {
		return fsapi.ErrNotDir
	}
	if err := fs.pinDirs(t, dir, dir); err != nil {
		return err
	}
	defer unpinDirs(dir, dir)
	if err := fs.lockHeld(t, child); err != nil {
		return err
	}
	defer child.lock.Unlock()
	if fs.inodes.Load(child.ino) != child {
		return fsapi.ErrNotExist // removed while we waited for the lock
	}
	cds := child.dir.exclusive()
	if !cds.ht.IfEmpty(func() {
		fs.dev.Killpoint(siteRmdirFoundEmpty)
		_, err = fs.removeEntry(t, dir, name, child.ino, func(uint64) {
			layout.FreeInode(fs.dev, fs.geo, child.ino)
			t.pb.Flush(layout.InodeOff(fs.geo, child.ino), layout.InodeSize)
			t.pb.Barrier()
			fs.inodes.Delete(child.ino)
			var pages []uint64
			var ino uint64
			if child.fresh.Load() {
				pages = append(cds.logPages[:0], cds.tailset)
				for ti := range cds.tails {
					pages = fs.appendTailPages(pages, cds, ti)
				}
				cds.logPages, ino = pages, child.ino
			}
			var spare *dirState
			if fs.reusesDirs() {
				// Readers that load the state from here on find the
				// removed one, and so does every writer waiting for one of
				// its bucket locks. Those that still hold it are readers,
				// which the grace period waits out.
				child.dir.set(removedDir)
				spare = cds
			}
			// Same grace-period discipline as destroyFile: a lock-free
			// lookup may still be scanning these log pages, or this state.
			fs.retireInode(t.cpu, child, pages, ino, spare)
		})
	}) {
		return fsapi.ErrNotEmpty
	}
	if err != nil {
		return err
	}
	t.cacheDirAttrs(dir, fs.clock.Load())
	return nil
}

// dirLogPages walks ds's log chains on PM and returns each tail's pages
// in link order (nil for an empty tail).
func (fs *FS) dirLogPages(ds *dirState) [][]uint64 {
	chains := make([][]uint64, len(ds.tails))
	for i := range chains {
		chains[i] = fs.appendTailPages(nil, ds, i)
	}
	return chains
}

// appendTailPages appends the pages of ds's log chain ti to dst, in link
// order, and returns the extended slice.
func (fs *FS) appendTailPages(dst []uint64, ds *dirState, ti int) []uint64 {
	for p := layout.TailHead(fs.dev, ds.tailset, ti); p != 0; p = layout.NextPage(fs.dev, p) {
		dst = append(dst, p)
	}
	return dst
}

// Readdir lists a directory's names in sorted order.
func (t *Thread) Readdir(path string) (names []string, err error) {
	defer t.endOp(t.beginOp(fsapi.OpReaddir), &err)
	mi, err := t.resolve(path)
	if err != nil {
		return nil, err
	}
	if mi.typ != layout.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	return t.fs.names(mi), nil
}

// names lists directory mi's names in sorted order, from its state with
// every bucket locked. A removed directory (ErrNotExist) lists none.
func (fs *FS) names(mi *minode) (names []string) {
	_ = fs.locked(nil, mi, dirLock{}, func(ds *dirState, _ htable.LockedBucket) error {
		names = make([]string, 0, ds.ht.Len())
		ds.ht.EachLocked(func(e *htable.Entry) { names = append(names, e.Name()) })
		return nil
	})
	sort.Strings(names)
	return names
}

// Stat returns path's attributes. ArckFS+ serves it from the cached
// in-memory inode (§4.3 patch); ArckFS reads the mapped core state, which
// crashes if the mapping was torn down concurrently.
func (t *Thread) Stat(path string) (st fsapi.Stat, err error) {
	defer t.endOp(t.beginOp(fsapi.OpStat), &err)
	mi, err := t.resolve(path)
	if err != nil {
		return fsapi.Stat{}, err
	}
	if t.fs.opts.Bugs.Has(BugReleaseUnsync) {
		if err := t.fs.checkMapped(mi); err != nil {
			return fsapi.Stat{}, err
		}
		in, ok, corrupt := layout.ReadInode(t.fs.dev, t.fs.geo, mi.ino)
		if !ok || corrupt {
			return fsapi.Stat{}, fsapi.ErrStale
		}
		return fsapi.Stat{
			Ino: mi.ino, Dir: in.Type == layout.TypeDir,
			Size: in.Size, Nlink: in.Nlink, MTime: in.MTime,
		}, nil
	}
	return mi.stat(), nil
}
