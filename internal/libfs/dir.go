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

// appendDentry appends a committed dentry for (childIno, name) to one of
// mi's log tails, honoring the §4.2 and §4.3 settings. The §4.2 patch is
// the single Barrier between the body epoch and the marker update: the
// new child's inode record (streamed by the caller before this call) and
// the dentry body all become durable before the commit marker can
// possibly persist. The marker line is queued only after that Barrier —
// it must never merge into the body epoch.
func (fs *FS) appendDentry(t *Thread, mi *minode, childIno uint64, name string) (layout.DentryRef, error) {
	ds := mi.dir.Load()
	ti := t.cpu % len(ds.tails)
	tc := &ds.tails[ti]
	tc.mu.Lock()
	defer tc.mu.Unlock()

	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	if h := fs.opts.Hooks.DirWriteInProgress; h != nil {
		h() // §4.3 window: the mapping may be torn down while we sit here
	}

	if err := fs.ensureTailSpace(t, ds, ti, tc, len(name)); err != nil {
		return 0, err
	}

	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	r := layout.MakeDentryRef(tc.page, tc.off)
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
	if h := fs.opts.Hooks.CreateBeforeMarkerFence; h != nil {
		h() // §4.2 crash window: marker flush queued, final fence not yet issued
	}
	pmem.Killpoint("libfs.create.marker")
	t.pb.Barrier()

	tc.off += layout.DentryRecLen(len(name))
	tc.slots++
	return r, nil
}

// ensureTailSpace points the tail cursor at a slot that fits a record
// for a name of nameLen bytes, allocating and linking log pages as
// needed. Caller holds the tail lock.
func (fs *FS) ensureTailSpace(t *Thread, ds *dirState, ti int, tc *tailCursor, nameLen int) error {
	if tc.page == 0 {
		p, err := fs.newLogPage(t)
		if err != nil {
			return err
		}
		ds.idxMu.Lock()
		layout.SetTailHead(fs.dev, ds.tailset, ti, p)
		t.pb.Flush(layout.TailHeadOff(ds.tailset, ti), 8)
		t.pb.Barrier()
		ds.unverified = append(ds.unverified, p)
		ds.idxMu.Unlock()
		tc.page, tc.off = p, 0
	}
	if !layout.DentryFits(tc.off, nameLen) {
		p, err := fs.newLogPage(t)
		if err != nil {
			return err
		}
		ds.idxMu.Lock()
		layout.SetNextPage(fs.dev, tc.page, p)
		t.pb.Flush(int64(tc.page*layout.PageSize)+layout.NextPtrOff, 8)
		t.pb.Barrier()
		ds.unverified = append(ds.unverified, p)
		ds.idxMu.Unlock()
		tc.page, tc.off = p, 0
	}
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
		r, err := fs.reserveDentry(t, mi, len(name))
		if err != nil {
			return 0, err
		}
		if !mi.ht().Insert(name, childIno, uint64(r)) {
			// Name exists; the reserved record stays a dead slot.
			return 0, fsapi.ErrExist
		}
		if h := fs.opts.Hooks.CreateBetweenAuxAndCore; h != nil {
			h()
		}
		if err := fs.fillDentry(t, mi, r, childIno, name); err != nil {
			mi.ht().Delete(name)
			return 0, err
		}
		if child != nil {
			fs.mtab.Store(childIno, child)
		}
		return r, nil
	}
	// ArckFS+: the bucket lock covers both updates.
	var r layout.DentryRef
	err := fs.withHeldBucket(t, mi, name, func(lb htable.LockedBucket) error {
		if _, exists := lb.Get(name); exists {
			return fsapi.ErrExist
		}
		var err error
		if r, err = fs.appendDentry(t, mi, childIno, name); err != nil {
			return err
		}
		if child != nil {
			fs.mtab.Store(childIno, child)
		}
		lb.Insert(name, childIno, uint64(r))
		return nil
	})
	return r, err
}

// withHeldBucket runs fn with name's bucket of mi locked and mi held.
// The caller checked that mi is held before it came here, but a release
// takes every bucket lock, so one may have slipped in since: the check is
// repeated under the lock, and a released directory is taken back —
// outside the lock, which a release of it would need — before the next
// try. Without this an operation that lost that race would write through a
// dormant mapping, behind the verification that made it dormant.
func (fs *FS) withHeldBucket(t *Thread, mi *minode, name string, fn func(htable.LockedBucket) error) error {
	for {
		ht := mi.ht()
		held := false
		var err error
		ht.WithBucket(name, func(lb htable.LockedBucket) {
			// A reacquire that rebuilt the directory swapped the table.
			if held = !mi.released.Load() && mi.ht() == ht; held {
				err = fn(lb)
			}
		})
		if held {
			return err
		}
		if err := fs.reacquire(t, mi); err != nil {
			return err
		}
	}
}

// reserveDentry claims log space for a record (tail lock only): it
// persists the record length so scans skip the slot until it is filled.
func (fs *FS) reserveDentry(t *Thread, mi *minode, nameLen int) (layout.DentryRef, error) {
	ds := mi.dir.Load()
	ti := t.cpu % len(ds.tails)
	tc := &ds.tails[ti]
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	if err := fs.ensureTailSpace(t, ds, ti, tc, nameLen); err != nil {
		return 0, err
	}
	r := layout.MakeDentryRef(tc.page, tc.off)
	//arcklint:allow flushcheck the write-back is skipped only when BugReserveLenUnflushed deliberately reproduces the reservation persistence hole for crashmc; the fixed path queues it below
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
	tc.off += layout.DentryRecLen(nameLen)
	tc.slots++
	return r, nil
}

// fillDentry writes a reserved record's contents and commits it with the
// two-step marker protocol (§4.2 ordering per the bug flag).
func (fs *FS) fillDentry(t *Thread, mi *minode, r layout.DentryRef, childIno uint64, name string) error {
	if err := fs.checkMapped(mi); err != nil {
		return err
	}
	if h := fs.opts.Hooks.DirWriteInProgress; h != nil {
		h()
	}
	layout.WriteDentryBody(fs.dev, r, childIno, name)
	fs.persistDentryBody(t.pb, r, len(name))
	if !fs.opts.Bugs.Has(BugMissingFence) {
		t.pb.Barrier()
	}
	//arcklint:allow persistorder the Barrier is skipped only when BugMissingFence deliberately reproduces the §4.2 bug; the patched path barriers above
	layout.CommitDentry(fs.dev, r, len(name))
	t.pb.Flush(r.MarkerOff(), 2)
	if h := fs.opts.Hooks.CreateBeforeMarkerFence; h != nil {
		h()
	}
	pmem.Killpoint("libfs.create.marker")
	t.pb.Barrier()
	return nil
}

// removeEntry unlinks name from mi and invalidates its persistent
// record, honoring the §4.4 critical-section setting. doomed, for an entry
// whose inode goes away with it, destroys that inode inside the critical
// section: a release of mi — which needs every bucket lock — then never
// finds the entry gone and the inode still there, in the inode table or
// half-zeroed on the device. It returns the removed child's ino.
func (fs *FS) removeEntry(t *Thread, mi *minode, name string, doomed func(ino uint64)) (uint64, error) {
	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	if fs.opts.Bugs.Has(BugAuxCoreRace) {
		ino, ref, ok := mi.ht().Delete(name)
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
		if doomed != nil {
			doomed(ino)
		}
		return ino, nil
	}
	var ino uint64
	err := fs.withHeldBucket(t, mi, name, func(lb htable.LockedBucket) error {
		e, ok := lb.Get(name)
		if !ok {
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
	dir.cacheDirAttrs(in.MTime)
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
	ntails := len(fs.rootTails())
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
	mi.dir.Store(&dirState{
		ht:      fs.newDirTable(0),
		tailset: tailset,
		tails:   make([]tailCursor, ntails),
	})
	mi.parent.Store(dir.ino)
	mi.fresh.Store(true)
	mi.cacheAttrs(0, 2, in.MTime)
	if _, err := fs.insertEntry(t, dir, ino, name, mi); err != nil {
		fs.recycleIno(ino)
		fs.recyclePages(t.cpu, []uint64{tailset})
		return err
	}
	dir.cacheDirAttrs(in.MTime)
	return nil
}

// rootTails returns the tail cursor slice of the root directory, used
// only for its length (the FS-wide tail count).
func (fs *FS) rootTails() []tailCursor {
	if v, ok := fs.mtab.Load(uint64(layout.RootIno)); ok {
		return v.(*minode).dir.Load().tails
	}
	// Root not faulted in yet: read the count from PM.
	in, _, _ := layout.ReadInode(fs.dev, fs.geo, layout.RootIno)
	return make([]tailCursor, in.NTails)
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
	_, err = fs.removeEntry(t, dir, name, func(ino uint64) {
		if v, cached := fs.mtab.LoadAndDelete(ino); cached {
			fs.destroyFile(t, v.(*minode))
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
	dir.cacheDirAttrs(fs.clock.Load())
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
// read-side section.
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
		fs.retire(t.cpu, pages, child.ino)
	case st != nil && !child.unmapped():
		fs.retire(t.cpu, st.unverified, 0)
		st.unverified = nil
	}
	child.lock.Unlock()
}

// Rmdir removes an empty directory.
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
	if child.ht().Len() != 0 {
		return fsapi.ErrNotEmpty
	}
	_, err = fs.removeEntry(t, dir, name, func(uint64) {
		child.lock.Lock()
		layout.FreeInode(fs.dev, fs.geo, child.ino)
		t.pb.Flush(layout.InodeOff(fs.geo, child.ino), layout.InodeSize)
		t.pb.Barrier()
		fs.mtab.Delete(child.ino)
		if child.fresh.Load() {
			cds := child.dir.Load()
			pages := []uint64{cds.tailset}
			for _, chain := range fs.dirLogPages(cds) {
				pages = append(pages, chain...)
			}
			// Same grace-period discipline as destroyFile: a lock-free
			// lookup may still be scanning these log pages.
			fs.retire(t.cpu, pages, child.ino)
		}
		child.lock.Unlock()
	})
	if err != nil {
		return err
	}
	dir.cacheDirAttrs(fs.clock.Load())
	return nil
}

// dirLogPages walks ds's log chains on PM and returns each tail's pages
// in link order (nil for an empty tail).
func (fs *FS) dirLogPages(ds *dirState) [][]uint64 {
	chains := make([][]uint64, len(ds.tails))
	for i := range chains {
		for p := layout.TailHead(fs.dev, ds.tailset, i); p != 0; p = layout.NextPage(fs.dev, p) {
			chains[i] = append(chains[i], p)
		}
	}
	return chains
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
	ht := mi.ht()
	names = make([]string, 0, ht.Len())
	ht.Range(func(name string, _, _ uint64) bool {
		names = append(names, name)
		return true
	})
	sort.Strings(names)
	return names, nil
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
