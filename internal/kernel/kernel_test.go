package kernel

import (
	"errors"
	"testing"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/verifier"
)

// --- LibFS-style helpers: build core state the way a LibFS would --------

type harness struct {
	t   testing.TB
	dev *pmem.Device
	c   *Controller
	g   layout.Geometry
}

func newHarness(t *testing.T, mode verifier.Mode) *harness {
	t.Helper()
	return newSizedHarness(t, mode, 512, 256)
}

func newSizedHarness(t testing.TB, mode verifier.Mode, pages int, inodes uint64) *harness {
	t.Helper()
	dev := pmem.New(int64(pages)*layout.PageSize, nil)
	c, err := Format(dev, Options{Mode: mode, InodeCap: inodes, NTails: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, dev: dev, c: c, g: c.Geometry()}
}

// commitOne commits ino: a Transfer of one, XferCommit.
func (c *Controller) commitOne(app AppID, ino uint64) error {
	return c.Transfer(app, []uint64{ino}, XferCommit, nil)[0].Err
}

// releaseLeased lease-releases ino: a Transfer of one, XferLease.
func (c *Controller) releaseLeased(app AppID, ino uint64) (*Mapping, error) {
	r := c.Transfer(app, []uint64{ino}, XferLease, nil)[0]
	return r.Mapping, r.Err
}

// grant fetches one inode number and n pages for app.
func (h *harness) grant(app AppID, npages int) (uint64, []uint64) {
	h.t.Helper()
	inos, err := h.c.GrantInodes(app, 1)
	if err != nil {
		h.t.Fatal(err)
	}
	var pages []uint64
	if npages > 0 {
		pages, err = h.c.GrantPages(app, 0, npages)
		if err != nil {
			h.t.Fatal(err)
		}
	}
	return inos[0], pages
}

// appendDentry appends a committed dentry to tail 0 of dir's log,
// allocating the tail head from pages if needed, the way a correct LibFS
// would (full §4.2-patched ordering).
func (h *harness) appendDentry(dirIno, childIno uint64, name string, pages *[]uint64) layout.DentryRef {
	h.t.Helper()
	in, ok, _ := layout.ReadInode(h.dev, h.g, dirIno)
	if !ok {
		h.t.Fatalf("dir inode %d unreadable", dirIno)
	}
	head := layout.TailHead(h.dev, in.DataRoot, 0)
	if head == 0 {
		head = (*pages)[0]
		*pages = (*pages)[1:]
		layout.ZeroPage(h.dev, head)
		layout.SetTailHead(h.dev, in.DataRoot, 0, head)
		h.dev.Persist(int64(head*layout.PageSize), layout.PageSize)
		h.dev.Persist(int64(in.DataRoot*layout.PageSize), layout.PageSize)
	}
	// Find the frontier.
	page, off, _ := layout.ScanTail(h.dev, head, nil)
	if !layout.DentryFits(off, len(name)) {
		np := (*pages)[0]
		*pages = (*pages)[1:]
		layout.ZeroPage(h.dev, np)
		h.dev.Persist(int64(np*layout.PageSize), layout.PageSize)
		layout.SetNextPage(h.dev, page, np)
		h.dev.Persist(int64(page*layout.PageSize)+layout.NextPtrOff, 8)
		page, off = np, 0
	}
	r := layout.MakeDentryRef(page, off)
	layout.WriteDentryBody(h.dev, r, childIno, name)
	h.dev.Flush(r.DevOff(), int64(layout.DentryRecLen(len(name))))
	h.dev.Fence()
	layout.CommitDentry(h.dev, r, len(name))
	h.dev.Persist(r.MarkerOff(), 2)
	return r
}

// findDentry locates name in dir's log.
func (h *harness) findDentry(dirIno uint64, name string) (layout.DentryRef, bool) {
	in, _, _ := layout.ReadInode(h.dev, h.g, dirIno)
	for t := 0; t < int(in.NTails); t++ {
		head := layout.TailHead(h.dev, in.DataRoot, t)
		if head == 0 {
			continue
		}
		var found layout.DentryRef
		ok := false
		layout.ScanTail(h.dev, head, func(d layout.RawDentry) bool {
			if d.Live && string(d.Name) == name {
				found, ok = d.Ref, true
				return false
			}
			return true
		})
		if ok {
			return found, true
		}
	}
	return 0, false
}

// mkfile creates a regular file named name under dirIno (which app must
// hold), returning the child ino.
func (h *harness) mkfile(app AppID, dirIno uint64, name string) uint64 {
	h.t.Helper()
	ino, pages := h.grant(app, 4)
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite, Nlink: 1, Parent: dirIno}
	layout.WriteInode(h.dev, h.g, ino, &in)
	h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
	h.appendDentry(dirIno, ino, name, &pages)
	h.c.ReturnPages(app, pages)
	return ino
}

// mkdir creates a directory named name under dirIno.
func (h *harness) mkdir(app AppID, dirIno uint64, name string) uint64 {
	h.t.Helper()
	ino, pages := h.grant(app, 4)
	tailset := pages[0]
	pages = pages[1:]
	layout.InitTailSet(h.dev, tailset, 2)
	h.dev.Persist(int64(tailset*layout.PageSize), layout.PageSize)
	in := layout.Inode{Type: layout.TypeDir, Perm: layout.PermRead | layout.PermWrite, Nlink: 2, Parent: dirIno, DataRoot: tailset, NTails: 2}
	layout.WriteInode(h.dev, h.g, ino, &in)
	h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
	h.appendDentry(dirIno, ino, name, &pages)
	h.c.ReturnPages(app, pages)
	return ino
}

// unlink invalidates name's dentry in dirIno.
func (h *harness) unlink(dirIno uint64, name string) {
	h.t.Helper()
	r, ok := h.findDentry(dirIno, name)
	if !ok {
		h.t.Fatalf("no dentry %q in %d", name, dirIno)
	}
	layout.InvalidateDentry(h.dev, r)
	h.dev.Persist(r.MarkerOff(), 2)
}

// --- Tests ----------------------------------------------------------------

func TestAcquireReleaseNoChanges(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	m, err := h.c.Acquire(app, layout.RootIno, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid() || m.Ino() != layout.RootIno {
		t.Fatal("bad mapping")
	}
	if h.c.OwnerOf(layout.RootIno) != app {
		t.Fatal("owner not recorded")
	}
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if m.Valid() {
		t.Fatal("mapping not revoked at release")
	}
	if h.c.OwnerOf(layout.RootIno) != 0 {
		t.Fatal("owner not cleared")
	}
}

func TestAcquireIdempotentForOwner(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	m1, err := h.c.Acquire(app, layout.RootIno, true)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := h.c.Acquire(app, layout.RootIno, true)
	if err != nil || m1 != m2 {
		t.Fatalf("re-acquire: %v, same=%v", err, m1 == m2)
	}
	h.c.Release(app, layout.RootIno)
}

// TestRepeatAcquireAllocatesNothing pins the crossing's fast path: an
// owner asking again for what it holds is counted (Stats) and
// answered with the existing mapping, and no record of it is built.
func TestRepeatAcquireAllocatesNothing(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	held, err := h.c.Acquire(app, layout.RootIno, true)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if m, err := h.c.Acquire(app, layout.RootIno, true); err != nil || m != held {
			t.Fatalf("re-acquire: %v, same=%v", err, m == held)
		}
	})
	if allocs != 0 {
		t.Fatalf("a repeat acquire allocates %v objects, want 0", allocs)
	}
}

func TestCreateCommitFlow(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	ino := h.mkfile(app, layout.RootIno, "a.txt")

	// The kernel knows nothing about the child yet.
	if _, ok := h.c.ShadowOf(ino); ok {
		t.Fatal("child has a shadow before parent verification")
	}
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	sh, ok := h.c.ShadowOf(ino)
	if !ok || sh.Committed {
		t.Fatalf("child should be pending: ok=%v committed=%v", ok, sh.Committed)
	}
	if sh.Parent != layout.RootIno {
		t.Fatalf("pending parent = %d", sh.Parent)
	}
	root, _ := h.c.ShadowOf(layout.RootIno)
	if root.ChildCount != 1 {
		t.Fatalf("root childCount = %d", root.ChildCount)
	}
	// Rule-1 commit.
	if err := h.c.commitOne(app, ino); err != nil {
		t.Fatal(err)
	}
	sh, _ = h.c.ShadowOf(ino)
	if !sh.Committed || sh.Type != layout.TypeFile {
		t.Fatalf("after commit: %+v", sh)
	}
	if err := h.c.Release(app, ino); err != nil {
		t.Fatal(err)
	}
}

func TestRule1CommitBeforeParentReleaseFails(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino := h.mkfile(app, layout.RootIno, "early.txt")
	err := h.c.commitOne(app, ino)
	if !IsVerificationError(err) {
		t.Fatalf("commit before parent release: %v, want verification failure (Rule 1)", err)
	}
	err = h.c.Release(app, ino)
	if !IsVerificationError(err) {
		t.Fatalf("release before parent release: %v, want verification failure (Rule 1)", err)
	}
}

func TestCommitKeepsOwnershipAndRefreshesBaseline(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	m, _ := h.c.Acquire(app, layout.RootIno, true)
	h.mkfile(app, layout.RootIno, "one")
	if err := h.c.commitOne(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if !m.Valid() {
		t.Fatal("commit revoked the mapping")
	}
	if h.c.OwnerOf(layout.RootIno) != app {
		t.Fatal("commit dropped ownership")
	}
	// A second change after the commit verifies against the refreshed
	// baseline.
	h.mkfile(app, layout.RootIno, "two")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	root, _ := h.c.ShadowOf(layout.RootIno)
	if root.ChildCount != 2 {
		t.Fatalf("childCount = %d", root.ChildCount)
	}
}

func TestUnlinkFreesInodeAndPages(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino := h.mkfile(app, layout.RootIno, "gone.txt")
	if err := h.c.commitOne(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if err := h.c.commitOne(app, ino); err != nil {
		t.Fatal(err)
	}
	free := h.c.FreeCount()
	h.unlink(layout.RootIno, "gone.txt")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.c.ShadowOf(ino); ok {
		t.Fatal("unlinked file still has a shadow")
	}
	if h.c.FreeCount() < free {
		t.Fatalf("pages not reclaimed: %d -> %d", free, h.c.FreeCount())
	}
	_, _, okRec := layout.ReadInode(h.dev, h.g, ino)
	if okRec {
		t.Fatal("inode record not freed")
	}
}

func TestI3RejectsNonEmptyDirRemoval(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	dir := h.mkdir(app, layout.RootIno, "d")
	h.c.commitOne(app, layout.RootIno)
	h.c.commitOne(app, dir)
	h.mkfile(app, dir, "inner")
	h.c.commitOne(app, dir)

	// Delete d's dentry while d still has a child: I3 violation.
	h.unlink(layout.RootIno, "d")
	err := h.c.Release(app, layout.RootIno)
	if !IsVerificationError(err) {
		t.Fatalf("removal of non-empty dir: %v, want I3 failure", err)
	}
	// Rollback restored the dentry.
	if _, ok := h.findDentry(layout.RootIno, "d"); !ok {
		t.Fatal("rollback did not restore the dentry")
	}
	if h.c.Stats.Rollbacks.Load() != 1 {
		t.Fatalf("Rollbacks = %d", h.c.Stats.Rollbacks.Load())
	}
}

func TestEmptyDirRemovalOK(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	dir := h.mkdir(app, layout.RootIno, "d")
	h.c.commitOne(app, layout.RootIno)
	h.c.commitOne(app, dir)
	h.unlink(layout.RootIno, "d")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.c.ShadowOf(dir); ok {
		t.Fatal("removed dir still has a shadow")
	}
}

// TestRemovalFreesPagesWithoutTheInodeRecord: a LibFS zeroes the record of
// an inode it removes, so the kernel finds the inode's pages from what it
// verified — the held baseline, or the shadow's own root and size — and a
// record it never verified (a pending inode's) sizes nothing.
func TestRemovalFreesPagesWithoutTheInodeRecord(t *testing.T) {
	zero := func(h *harness, ino uint64) {
		layout.FreeInode(h.dev, h.g, ino)
		h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
	}
	for _, held := range []bool{true, false} {
		h := newHarness(t, verifier.Enhanced)
		app := h.c.RegisterApp(0, 0)
		h.c.Acquire(app, layout.RootIno, true)
		dir := h.mkdir(app, layout.RootIno, "d")
		file, _, _ := h.mkdatafile(app, layout.RootIno, "f")
		for _, ino := range []uint64{layout.RootIno, dir, file} {
			if err := h.c.commitOne(app, ino); err != nil {
				t.Fatal(err)
			}
			if !held && ino != layout.RootIno {
				if err := h.c.Release(app, ino); err != nil {
					t.Fatal(err)
				}
			}
		}
		free := h.c.FreeCount()
		for name, ino := range map[string]uint64{"d": dir, "f": file} {
			h.unlink(layout.RootIno, name)
			zero(h, ino)
		}
		if err := h.c.Release(app, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		// The directory's tail set, the file's map page and its block.
		if got := h.c.FreeCount() - free; got != 3 {
			t.Fatalf("held=%v: removing a directory and a one-block file freed %d pages, want 3", held, got)
		}
	}

	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino, mapPage, _ := h.mkdatafile(app, layout.RootIno, "pending")
	in, _, _ := layout.ReadInode(h.dev, h.g, ino)
	in.Size = 1 << 60
	layout.WriteInode(h.dev, h.g, ino, &in)
	if err := h.c.commitOne(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	h.unlink(layout.RootIno, "pending")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if o := h.c.pageOwnerAt(mapPage); o != ownApp(app) {
		t.Fatalf("a never-committed inode's map page changed owner to %#x", o)
	}
}

func TestMarkInaccessiblePolicy(t *testing.T) {
	dev := pmem.New(512*layout.PageSize, nil)
	c, err := Format(dev, Options{Mode: verifier.Enhanced, InodeCap: 256, NTails: 2, Policy: PolicyMarkInaccessible})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, dev: dev, c: c, g: c.Geometry()}
	app := c.RegisterApp(0, 0)
	c.Acquire(app, layout.RootIno, true)
	dir := h.mkdir(app, layout.RootIno, "d")
	c.commitOne(app, layout.RootIno)
	c.commitOne(app, dir)
	h.mkfile(app, dir, "inner")
	c.commitOne(app, dir)
	h.unlink(layout.RootIno, "d")
	if err := c.Release(app, layout.RootIno); !IsVerificationError(err) {
		t.Fatalf("expected verification failure, got %v", err)
	}
	if _, err := c.Acquire(app, layout.RootIno, false); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("acquire of inaccessible inode: %v", err)
	}
}

func TestACLDeniesWrite(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(1000, 1000)
	h.c.SetACL(layout.RootIno, app, layout.PermRead)
	if _, err := h.c.Acquire(app, layout.RootIno, true); !errors.Is(err, fsapi.ErrPerm) {
		t.Fatalf("write acquire: %v, want ErrPerm", err)
	}
	if _, err := h.c.Acquire(app, layout.RootIno, false); err != nil {
		t.Fatalf("read acquire: %v", err)
	}
}

func TestBusyAndLeaseExpiry(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	now := time.Unix(5000, 0)
	h.c.SetClock(func() time.Time { return now })
	app1 := h.c.RegisterApp(0, 0)
	app2 := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app1, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Acquire(app2, layout.RootIno, true); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("second app acquire: %v, want ErrBusy", err)
	}
	// Lease expires; app2 triggers an involuntary release.
	now = now.Add(time.Hour)
	m2, err := h.c.Acquire(app2, layout.RootIno, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Valid() {
		t.Fatal("mapping invalid")
	}
	if h.c.Stats.Involuntary.Load() != 1 {
		t.Fatalf("Involuntary = %d", h.c.Stats.Involuntary.Load())
	}
	if h.c.OwnerOf(layout.RootIno) != app2 {
		t.Fatal("ownership did not move")
	}
}

func TestTrustGroupTransferSkipsVerification(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app1 := h.c.RegisterApp(0, 0)
	app2 := h.c.RegisterApp(0, 0)
	if _, err := h.c.NewTrustGroup(app1, app2); err != nil {
		t.Fatal(err)
	}
	m1, _ := h.c.Acquire(app1, layout.RootIno, true)
	before := h.c.Stats.Verifications.Load()
	m2, err := h.c.Acquire(app2, layout.RootIno, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.c.Stats.Verifications.Load() != before {
		t.Fatal("trust transfer ran the verifier")
	}
	if h.c.Stats.TrustTransfers.Load() != 1 {
		t.Fatalf("TrustTransfers = %d", h.c.Stats.TrustTransfers.Load())
	}
	// Within a trust group both mappings stay established: the point of
	// the group is sharing without unmap/verify cycles.
	if !m1.Valid() || !m2.Valid() {
		t.Fatal("group mappings should both remain valid")
	}
	if h.c.OwnerOf(layout.RootIno) != app2 {
		t.Fatal("ownership bookkeeping should follow the last acquirer")
	}
	// A release still revokes every group mapping and verifies.
	if err := h.c.Release(app2, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if m1.Valid() || m2.Valid() {
		t.Fatal("release must revoke all group mappings")
	}
}

// TestForceReleaseVerifies: an app that leaves holding an inode has it
// released involuntarily, verified and applied as a voluntary release is.
func TestForceReleaseVerifies(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	h.mkfile(app, layout.RootIno, "f")
	if err := h.c.UnregisterApp(app); err != nil {
		t.Fatal(err)
	}
	if n := h.c.Stats.Involuntary.Load(); n != 1 {
		t.Fatalf("%d involuntary releases, want 1", n)
	}
	root, _ := h.c.ShadowOf(layout.RootIno)
	if root.ChildCount != 1 {
		t.Fatalf("childCount = %d after forced release", root.ChildCount)
	}
	if h.c.OwnerOf(layout.RootIno) != 0 {
		t.Fatal("owner not cleared")
	}
}

func TestGrantExhaustion(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.GrantInodes(app, 1<<20); !errors.Is(err, fsapi.ErrNoSpace) {
		t.Fatalf("oversized inode grant: %v", err)
	}
	if _, err := h.c.GrantPages(app, 0, 1<<20); !errors.Is(err, fsapi.ErrNoSpace) {
		t.Fatalf("oversized page grant: %v", err)
	}
}

func TestVerifierRejectsUngrantedPages(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	// Forge a dentry log page the kernel never granted: steal a free page
	// by writing to it directly.
	stolen := h.g.PageCount - 3
	layout.ZeroPage(h.dev, stolen)
	layout.SetTailHead(h.dev, h.c.shadowGet(layout.RootIno, nil).info.DataRoot, 1, stolen)
	ino, _ := h.grant(app, 0)
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: layout.RootIno}
	layout.WriteInode(h.dev, h.g, ino, &in)
	r := layout.MakeDentryRef(stolen, 0)
	layout.WriteDentryBody(h.dev, r, ino, "stolen")
	layout.CommitDentry(h.dev, r, len("stolen"))
	err := h.c.Release(app, layout.RootIno)
	if !IsVerificationError(err) {
		t.Fatalf("release with stolen page: %v, want verification failure", err)
	}
}
