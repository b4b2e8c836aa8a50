package kernel

import (
	"strings"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/verifier"
)

// buildCommittedTree creates /a/.. structure on a fresh harness and
// releases everything, leaving a clean kernel-held tree:
// /dirA/file1, /dirA/file2, /fileTop.
func buildCommittedTree(h *harness, app AppID) (dirA, file1, file2, fileTop uint64) {
	h.c.Acquire(app, layout.RootIno, true)
	dirA = h.mkdir(app, layout.RootIno, "dirA")
	fileTop = h.mkfile(app, layout.RootIno, "fileTop")
	h.c.commitOne(app, layout.RootIno)
	h.c.commitOne(app, dirA)
	h.c.commitOne(app, fileTop)
	file1 = h.mkfile(app, dirA, "file1")
	file2 = h.mkfile(app, dirA, "file2")
	h.c.commitOne(app, dirA)
	h.c.commitOne(app, file1)
	h.c.commitOne(app, file2)
	for _, ino := range []uint64{file1, file2, fileTop, dirA, layout.RootIno} {
		if err := h.c.Release(app, ino); err != nil {
			h.t.Fatalf("release %d: %v", ino, err)
		}
	}
	return
}

func TestMountCleanTree(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	dirA, file1, _, _ := buildCommittedTree(h, app)

	c2, rep, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean tree not clean: %s", rep)
	}
	if rep.CommittedInodes != 5 { // root, dirA, file1, file2, fileTop
		t.Fatalf("CommittedInodes = %d", rep.CommittedInodes)
	}
	sh, ok := c2.ShadowOf(dirA)
	if !ok || sh.ChildCount != 2 || sh.Parent != layout.RootIno {
		t.Fatalf("dirA shadow after mount: %+v ok=%v", sh, ok)
	}
	if _, ok := c2.ShadowOf(file1); !ok {
		t.Fatal("file1 lost across mount")
	}
	// The remounted system is usable.
	app2 := c2.RegisterApp(0, 0)
	if _, err := c2.Acquire(app2, dirA, true); err != nil {
		t.Fatal(err)
	}
	if err := c2.Release(app2, dirA); err != nil {
		t.Fatal(err)
	}
}

// TestRepairMountWritesOnlyWhatChanged: recovery rewrites a directory's
// shadow only when its recount moved, so a repairing mount of a clean tree
// stores, flushes and fences nothing, and one that drops a torn entry pays
// one fence in each pass that repaired something.
func TestRepairMountWritesOnlyWhatChanged(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	dirA, _, _, _ := buildCommittedTree(h, h.c.RegisterApp(0, 0))
	counts := func() [3]int64 {
		return [3]int64{h.dev.Stats.Stores.Load(), h.dev.Stats.Flushes.Load(), h.dev.Stats.Fences.Load()}
	}
	mount := func() [3]int64 {
		t.Helper()
		before := counts()
		if _, _, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true); err != nil {
			t.Fatal(err)
		}
		after := counts()
		return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	if d := mount(); d != [3]int64{} {
		t.Fatalf("repair mount of a clean tree: %d stores, %d flushes, %d fences, want none", d[0], d[1], d[2])
	}
	r, _ := h.findDentry(dirA, "file1")
	h.dev.Zero(r.DevOff()+layout.DentryHeaderSize, 5)
	// Pass 3: the marker's line and dirA's shadow line; pass 4: the
	// orphaned file's shadow line and its live inode record's line.
	if d := mount(); d[1] != 1+1+1+1 || d[2] != 2 {
		t.Fatalf("repair of one torn entry: %d flushes, %d fences, want 4 and 2", d[1], d[2])
	}
}

func TestMountRepairsTornDentry(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	dirA, _, _, _ := buildCommittedTree(h, app)

	// Forge the §4.2 crash signature inside dirA's log: a record with a
	// valid commit marker whose name bytes are torn (zeroed).
	r, ok := h.findDentry(dirA, "file1")
	if !ok {
		t.Fatal("no file1 dentry")
	}
	h.dev.Zero(r.DevOff()+layout.DentryHeaderSize, 5)

	// Dry run first: reports but does not repair.
	rep, err := Fsck(h.dev, Options{Mode: verifier.Enhanced})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptDentries != 1 {
		t.Fatalf("fsck CorruptDentries = %d", rep.CorruptDentries)
	}
	if d, _ := layout.ReadDentry(h.dev, r); !d.Live {
		t.Fatal("dry-run fsck modified the device")
	}

	// Repairing mount invalidates the torn record and fixes childCount.
	c2, rep, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptDentries != 1 {
		t.Fatalf("mount CorruptDentries = %d", rep.CorruptDentries)
	}
	if d, _ := layout.ReadDentry(h.dev, r); d.Live {
		t.Fatal("torn dentry not invalidated")
	}
	sh, _ := c2.ShadowOf(dirA)
	if sh.ChildCount != 1 {
		t.Fatalf("dirA childCount = %d after repair", sh.ChildCount)
	}
	// file1's inode became an orphan and was freed.
	if rep.OrphanInodes != 1 {
		t.Fatalf("OrphanInodes = %d", rep.OrphanInodes)
	}
}

func TestMountDropsUncommittedCreation(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	buildCommittedTree(h, app)

	// Simulate a crash mid-workload: a dentry whose inode was granted
	// but never committed (parent never released).
	h.c.Acquire(app, layout.RootIno, true)
	h.mkfile(app, layout.RootIno, "in-flight")
	// Crash now (no release): remount from current device state.
	c2, rep, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DanglingEntries != 1 {
		t.Fatalf("DanglingEntries = %d", rep.DanglingEntries)
	}
	app2 := c2.RegisterApp(0, 0)
	if _, err := c2.Acquire(app2, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	sh, _ := c2.ShadowOf(layout.RootIno)
	if sh.ChildCount != 2 { // dirA + fileTop survive; in-flight dropped
		t.Fatalf("root childCount = %d", sh.ChildCount)
	}
}

func TestMountRestoresInodeFromShadow(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	_, file1, _, _ := buildCommittedTree(h, app)

	// Scribble over file1's LibFS inode record (crash tore it).
	h.dev.Zero(layout.InodeOff(h.g, file1), layout.InodeSize)
	c2, rep, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoredInodes != 1 {
		t.Fatalf("RestoredInodes = %d", rep.RestoredInodes)
	}
	in, ok, corrupt := layout.ReadInode(h.dev, h.g, file1)
	if !ok || corrupt || in.Type != layout.TypeFile {
		t.Fatalf("inode not restored: ok=%v corrupt=%v %+v", ok, corrupt, in)
	}
	if _, ok := c2.ShadowOf(file1); !ok {
		t.Fatal("file1 shadow missing")
	}
}

// TestMountTrimsPointersPastSize: a growing write fences its map entry
// before its size, so a crash between the two leaves a block pointer past
// the durable size, which the verifier refuses at acquire. Recovery clears
// the pointer and frees its page, keeps the block the size covers, and the
// file is acquirable again.
func TestMountTrimsPointersPastSize(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino, mapPage, block := h.mkdatafile(app, layout.RootIno, "f")
	for _, i := range []uint64{layout.RootIno, ino} {
		if err := h.c.commitOne(app, i); err != nil {
			t.Fatal(err)
		}
	}
	torn, err := h.c.GrantPages(app, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout.SetMapEntry(h.dev, mapPage, 1, torn[0])
	h.dev.Persist(int64(mapPage*layout.PageSize)+8, 8)

	rep, err := Fsck(h.dev, Options{Mode: verifier.Enhanced})
	if err != nil || rep.TrimmedBlocks != 1 || rep.Clean() {
		t.Fatalf("dry run: %v, %v; want one pointer to trim", rep, err)
	}
	if layout.MapEntry(h.dev, mapPage, 1) != torn[0] {
		t.Fatal("the dry run modified the device")
	}
	c2, rep, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true)
	if err != nil || rep.TrimmedBlocks != 1 {
		t.Fatalf("mount: %v, %v; want one pointer trimmed", rep, err)
	}
	if got := layout.MapEntry(h.dev, mapPage, 1); got != 0 {
		t.Fatalf("map entry 1 reads %d after repair", got)
	}
	if c2.pageOwnerAt(torn[0]) != ownFree || c2.pageOwnerAt(block) != ownIno(ino) {
		t.Fatalf("owners after repair: trimmed page %#x, kept block %#x", c2.pageOwnerAt(torn[0]), c2.pageOwnerAt(block))
	}
	if _, err := c2.Acquire(c2.RegisterApp(0, 0), ino, false); err != nil {
		t.Fatalf("acquire after repair: %v", err)
	}
	if rep, err := Fsck(h.dev, Options{Mode: verifier.Enhanced}); err != nil || !rep.Clean() {
		t.Fatalf("fsck after repair: %v, %v", rep, err)
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	dev := pmem.New(64*layout.PageSize, nil)
	if _, _, err := Mount(dev, Options{}, true); err == nil {
		t.Fatal("mount of unformatted device succeeded")
	}
}

func TestMountReclaimsPendingShadows(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	buildCommittedTree(h, app)

	// Create a file and release the parent (child becomes pending) but
	// crash before committing the child.
	h.c.Acquire(app, layout.RootIno, true)
	ino := h.mkfile(app, layout.RootIno, "pending-child")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if sh, ok := h.c.ShadowOf(ino); !ok || sh.Committed {
		t.Fatal("setup: child should be pending")
	}
	// Crash + remount: the pending shadow was never persisted as
	// committed, so the creation is dropped and the dentry dangles.
	_, rep, err := Mount(h.dev, Options{Mode: verifier.Enhanced}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DanglingEntries != 1 {
		t.Fatalf("DanglingEntries = %d: %s", rep.DanglingEntries, rep)
	}
}

func TestReportString(t *testing.T) {
	r := Report{CommittedInodes: 3, CorruptDentries: 1}
	if !strings.Contains(r.String(), "corruptDentries=1") {
		t.Fatalf("Report.String() = %q", r.String())
	}
	if r.Clean() {
		t.Fatal("corrupt report claims clean")
	}
	if !(Report{CommittedInodes: 3}).Clean() {
		t.Fatal("clean report claims dirty")
	}
}
