package libfs

import (
	"errors"
	"slices"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// Open returns a descriptor for an existing file or directory.
func (t *Thread) Open(path string) (fd fsapi.FD, err error) {
	defer t.endOp(t.beginOp(fsapi.OpOpen), &err)
	mi, err := t.resolve(path)
	if err != nil {
		return -1, err
	}
	return t.newFD(mi), nil
}

// ReadAt copies file data at off into p, transparently re-acquiring if a
// trust-group peer took the inode; a refused re-acquire returns the
// kernel's error.
func (t *Thread) ReadAt(fd fsapi.FD, p []byte, off int64) (n int, err error) {
	defer t.endOp(t.beginOp(fsapi.OpRead), &err)
	mi, err := t.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	n, err = t.readAt(mi, p, off)
	if errors.Is(err, fsapi.ErrBusError) {
		if err = t.fs.remap(t, mi); err == nil {
			return t.readAt(mi, p, off)
		}
	}
	return n, err
}

// readAt walks the published block index inside an RCU read-side
// critical section, taking no lock at all. Bytes that overlap a
// concurrent write to the same region are unspecified; the index walk
// itself is always safe because writers publish entries before the size
// that makes them reachable. The reacquire of a released inode happens
// first so the read never crosses into the kernel inside its critical
// section.
func (t *Thread) readAt(mi *minode, p []byte, off int64) (int, error) {
	if mi.typ != layout.TypeFile {
		return 0, fsapi.ErrIsDir
	}
	if mi.released.Load() {
		if err := t.fs.reacquire(t, mi); err != nil {
			return 0, err
		}
	}
	t.rd.ReadLock()
	defer t.rd.ReadUnlock()
	return t.readAtCommon(mi, p, off)
}

func (t *Thread) readAtCommon(mi *minode, p []byte, off int64) (int, error) {
	if err := t.fs.checkMapped(mi); err != nil {
		return 0, err
	}
	st := mi.file.Load()
	if off < 0 {
		return 0, fsapi.ErrInval
	}
	size := st.size.Load()
	if uint64(off) >= size {
		return 0, nil
	}
	n := len(p)
	if uint64(off)+uint64(n) > size {
		n = int(size - uint64(off))
	}
	if n >= DelegationThreshold {
		t.fs.delegatedCopyOut(st, off, p[:n])
	} else {
		t.fs.copyOutRange(st, off, p[:n])
	}
	return n, nil
}

// WriteAt stores p at off, growing the file as needed. Data and metadata
// persist synchronously: data pages are fenced before the block map and
// size, so a crash never exposes garbage through a valid pointer.
//
// If the kernel moved the inode to a trust-group peer since the last
// operation, the patched LibFS transparently re-acquires and retries
// once (a refused re-acquire returns the kernel's error); ArckFS crashes
// (§4.3).
func (t *Thread) WriteAt(fd fsapi.FD, p []byte, off int64) (n int, err error) {
	defer t.endOp(t.beginOp(fsapi.OpWrite), &err)
	mi, err := t.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	n, err = t.fs.writeAt(t, mi, p, off)
	if errors.Is(err, fsapi.ErrBusError) {
		if err = t.fs.remap(t, mi); err == nil {
			return t.fs.writeAt(t, mi, p, off)
		}
	}
	return n, err
}

// lockHeld takes mi.lock for a writer with mi held: a released inode is
// taken back first, and because a release may slip in between that and
// the lock — it takes the same lock — the check is repeated under it: the
// inode counterpart of the locked accessor's writer lock (dirref.go).
func (fs *FS) lockHeld(t *Thread, mi *minode) error {
	for {
		if mi.released.Load() {
			if err := fs.reacquire(t, mi); err != nil {
				return err
			}
		}
		mi.lock.Lock()
		if !mi.released.Load() {
			return nil
		}
		mi.lock.Unlock()
	}
}

// Bytes past the size. A byte at or past a file's size is unspecified,
// and whatever makes it readable zeroes it first. Nothing zeroes a block
// when a write or a shrink leaves part of it past the size; the zeroing
// happens when the size grows over it:
//
//   - a write past the end zeroes the gap [size, off) in the blocks the
//     file already has (zeroGap), and the head [blockStart, off) of a
//     fresh block it starts in;
//   - a growing Truncate zeroes [size, new size) in the blocks the file
//     already has (zeroGap);
//   - a fresh block below the size — a hole being filled — is zeroed
//     whole, because its pointer is reachable the instant it is stored.
//
// Holes read as zeroes and need nothing. The zeroes are stored before the
// size that exposes them is published, and durable before the inode
// record that persists it.
func (fs *FS) writeAt(t *Thread, mi *minode, p []byte, off int64) (int, error) {
	if mi.typ != layout.TypeFile {
		return 0, fsapi.ErrIsDir
	}
	if off < 0 {
		return 0, fsapi.ErrInval
	}
	if len(p) == 0 {
		return 0, nil
	}
	if err := fs.lockHeld(t, mi); err != nil {
		return 0, err
	}
	defer mi.lock.Unlock()
	if err := fs.checkMapped(mi); err != nil {
		return 0, err
	}
	st := mi.file.Load()

	end := uint64(off) + uint64(len(p))
	needBlocks := layout.BlocksForSize(end)
	firstBlock := int(off / layout.PageSize)
	lastBlock := int((end - 1) / layout.PageSize)
	arr := st.blockArr()
	missing := 0
	for bi := firstBlock; bi <= lastBlock; bi++ {
		if bi >= len(arr) || arr[bi].Load() == 0 {
			missing++
		}
	}
	if err := fs.takePages(t, missing+st.mapShort(needBlocks)); err != nil {
		return 0, err
	}
	fresh := t.fresh
	curSize := st.size.Load()
	if uint64(off) > curSize {
		fs.zeroGap(t, st, curSize, uint64(off))
	}

	// Pass 1: install a taken page at every missing block the write
	// touches. Its zeroes, like zeroGap's, are durable at the data barrier.
	t.dirty = t.dirty[:0]
	st.ensureBlocks(needBlocks)
	arr = st.blockArr()
	for bi := firstBlock; bi <= lastBlock; bi++ {
		if arr[bi].Load() != 0 {
			continue
		}
		b := fresh[0]
		fresh = fresh[1:]
		// A fresh block below the published size is reachable the
		// instant its pointer is stored, before pass 2 copies the data:
		// a lock-free reader must find zeroes there, never the recycled
		// page's previous contents. A fresh block at or past it stays
		// invisible until the size is published, so only the gap in
		// front of the write, rounded up to off's line, is zeroed.
		start := int64(bi) * layout.PageSize
		if uint64(start) < curSize {
			t.pb.ZeroStream(int64(b*layout.PageSize), layout.PageSize)
		} else if off > start {
			t.pb.ZeroStream(int64(b*layout.PageSize), (off-start+pmem.LineSize-1)/pmem.LineSize*pmem.LineSize)
		}
		arr[bi].Store(b)
		t.dirty = append(t.dirty, bi)
		st.added(mi, b)
	}

	// Pass 2: copy the data — fanned out to delegate workers for large
	// requests (§5.2's I/O delegation), inline otherwise. Either way it
	// is durable at the barrier below.
	if len(p) >= DelegationThreshold {
		fs.delegatedCopyIn(t, st, off, p)
	} else {
		fs.copyInRange(t.pb, st, off, p)
	}
	written := len(p)
	// Order: data before metadata. When the write installs no new block
	// pointer and grows no size — an in-place overwrite — a reordered
	// inode update can expose nothing but a stale mtime, so data and
	// inode merge into one ordering epoch (one fence per op instead of
	// two).
	if len(t.dirty) > 0 || end > st.size.Load() {
		t.pb.Barrier()
	}

	// Extend the map chain to cover needBlocks entries.
	fs.linkMapPages(t, mi, fresh)
	for _, bi := range t.dirty {
		page := st.mapPages[bi/layout.MapEntriesPerPage]
		layout.SetMapEntry(fs.dev, page, bi%layout.MapEntriesPerPage, arr[bi].Load())
		// Adjacent 8-byte entries coalesce into single-line flushes in
		// the batch.
		t.pb.Flush(int64(page*layout.PageSize)+int64(bi%layout.MapEntriesPerPage)*8, 8)
	}
	// Order: map before size. A crash between the two leaves pointers
	// past the durable size, which recovery trims; the size without its
	// map entries would expose holes in the middle of the written range.
	grows := end > st.size.Load()
	if grows && len(t.dirty) > 0 {
		t.pb.Barrier()
	}
	// Publish the size last: a lock-free reader that observes it also
	// observes every block pointer stored above.
	if grows {
		st.size.Store(end)
	}
	fs.persistFileInode(t, mi)
	t.pb.Barrier()
	mi.cacheAttrs(st.size.Load(), 1, fs.clock.Load())
	return written, nil
}

// takePages replaces t.fresh with n granted pages. An operation takes
// every page it will link before it changes anything, so a grant the
// kernel refuses fails it whole: the pages taken by then go back through
// a grace period, like any the file system let go of.
func (fs *FS) takePages(t *Thread, n int) error {
	t.fresh = t.fresh[:0]
	for range n {
		p, err := fs.allocPage(t, t.cpu)
		if err != nil {
			fs.retire(t.cpu, slices.Clone(t.fresh))
			return err
		}
		t.fresh = append(t.fresh, p)
	}
	return nil
}

// linkMapPages appends pages to the file's map chain. Each is
// stream-zeroed and fenced before it is linked.
func (fs *FS) linkMapPages(t *Thread, mi *minode, pages []uint64) {
	st := mi.file.Load()
	for _, p := range pages {
		t.pb.ZeroStream(int64(p*layout.PageSize), layout.PageSize)
		t.pb.Barrier()
		if len(st.mapPages) > 0 {
			last := st.mapPages[len(st.mapPages)-1]
			layout.SetNextPage(fs.dev, last, p)
			t.pb.Flush(int64(last*layout.PageSize)+layout.NextPtrOff, 8)
			t.pb.Barrier()
		}
		st.mapPages = append(st.mapPages, p)
		st.added(mi, p)
	}
}

// zeroGap zeroes [from, to) in every allocated block of st: the bytes a
// growing write or truncate is about to make readable. Holes already read
// as zeroes and are skipped, and the walk stops at st.nblocks, so a far
// target costs the blocks the file has, not the blocks it would span.
// Whole lines are streamed; the ragged edge lines are stored and flushed.
// Everything is durable at the caller's next Barrier. It reports whether
// it stored anything.
func (fs *FS) zeroGap(t *Thread, st *fileState, from, to uint64) bool {
	if from >= to {
		return false
	}
	arr := st.blockArr()
	stored := false
	last := min(st.nblocks, layout.BlocksForSize(to))
	for bi := int(from / layout.PageSize); bi < last; bi++ {
		b := arr[bi].Load()
		if b == 0 {
			continue
		}
		start := uint64(bi) * layout.PageSize
		base := int64(b*layout.PageSize) - int64(start)
		lo, hi := base+int64(max(from, start)), base+int64(min(to, start+layout.PageSize))
		head := min((lo+pmem.LineSize-1)/pmem.LineSize*pmem.LineSize, hi)
		tail := max(hi/pmem.LineSize*pmem.LineSize, head)
		if head > lo {
			fs.dev.Zero(lo, head-lo)
			t.pb.Flush(lo, head-lo)
		}
		if tail > head {
			t.pb.ZeroStream(head, tail-head)
		}
		if hi > tail {
			fs.dev.Zero(tail, hi-tail)
			t.pb.Flush(tail, hi-tail)
		}
		stored = true
	}
	return stored
}

// persistFileInode streams mi's rewritten inode record (size, mtime, root
// pointer) into the batch. The caller issues the Barrier.
func (fs *FS) persistFileInode(t *Thread, mi *minode) {
	st := mi.file.Load()
	var root uint64
	if len(st.mapPages) > 0 {
		root = st.mapPages[0]
	}
	in := layout.Inode{
		Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite,
		Nlink: 1, Size: st.size.Load(), DataRoot: root, Parent: mi.parent.Load(),
		MTime: fs.now(),
	}
	t.streamInode(mi.ino, &in)
}

// Truncate sets path's size. Shrinking frees whole blocks beyond the new
// size and leaves the cut tail of the last one as it is; growing zeroes
// that tail (see writeAt for the rule) and leaves a hole beyond it.
func (t *Thread) Truncate(path string, size uint64) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpTruncate), &err)
	fs := t.fs
	mi, err := t.resolve(path)
	if err != nil {
		return err
	}
	if mi.typ != layout.TypeFile {
		return fsapi.ErrIsDir
	}
	if err := fs.lockHeld(t, mi); err != nil {
		return err
	}
	defer mi.lock.Unlock()
	if err := fs.checkMapped(mi); err != nil {
		return err
	}
	st := mi.file.Load()
	if old := st.size.Load(); size >= old {
		if err := fs.takePages(t, st.mapShort(layout.BlocksForSize(size))); err != nil {
			return err
		}
		fs.linkMapPages(t, mi, t.fresh)
		// The zeroes get their own epoch: a crash must not keep the new
		// size without them. A grow from an aligned size stores none.
		if fs.zeroGap(t, st, old, size) {
			t.pb.Barrier()
		}
		st.size.Store(size)
		fs.persistFileInode(t, mi)
		t.pb.Barrier()
		mi.cacheAttrs(st.size.Load(), 1, fs.clock.Load())
		return nil
	}
	keep := layout.BlocksForSize(size)
	// Shrink the readable range before unpublishing the block pointers,
	// so a concurrent lock-free reader never chases a freed page.
	st.size.Store(size)
	arr := st.blockArr()
	t.freed = t.freed[:0]
	for bi := keep; bi < st.nblocks; bi++ {
		if b := arr[bi].Load(); b != 0 {
			t.freed = append(t.freed, b)
			page := st.mapPages[bi/layout.MapEntriesPerPage]
			layout.SetMapEntry(fs.dev, page, bi%layout.MapEntriesPerPage, 0)
			// Eight adjacent cleared entries share a line; the batch
			// dedupes them to one write-back.
			t.pb.Flush(int64(page*layout.PageSize)+int64(bi%layout.MapEntriesPerPage)*8, 8)
			arr[bi].Store(0)
		}
	}
	st.nblocks = keep
	fs.persistFileInode(t, mi)
	t.pb.Barrier()
	// A lock-free reader that loaded the old size before the store above
	// can still chase the unpublished block pointers, so the pages must
	// wait out a grace period before they are reusable. Only app-granted
	// pages are the LibFS's to reuse: all of a fresh file's, and of a
	// committed file's those added since the kernel last verified it. The
	// kernel frees the rest when it verifies the shrink.
	if mi.fresh.Load() {
		fs.retire(t.cpu, slices.Clone(t.freed))
	} else {
		fs.retire(t.cpu, st.cutUnverified(t.freed))
	}
	mi.cacheAttrs(size, 1, fs.clock.Load())
	return nil
}

// Fsync is a no-op: every ArckFS operation persists synchronously, so
// "fsync() returns immediately" (§2.2).
func (t *Thread) Fsync(fd fsapi.FD) (err error) {
	defer t.endOp(t.beginOp(fsapi.OpFsync), &err)
	_, err = t.lookupFD(fd)
	return err
}
