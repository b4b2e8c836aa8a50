package kernel

import (
	"strings"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/verifier"
)

// rename performs the PM-level mechanics of a directory relocation the
// way a LibFS does: append the dentry in the new parent, invalidate it in
// the old parent, update the child's inode parent field.
func (h *harness) rename(app AppID, oldDir, newDir, child uint64, name string) {
	h.t.Helper()
	pages, err := h.c.GrantPages(app, 0, 2)
	if err != nil {
		h.t.Fatal(err)
	}
	h.appendDentry(newDir, child, name, &pages)
	h.unlink(oldDir, name)
	in, _, _ := layout.ReadInode(h.dev, h.g, child)
	in.Parent = newDir
	layout.WriteInode(h.dev, h.g, child, &in)
	h.dev.Persist(layout.InodeOff(h.g, child), layout.InodeSize)
	h.c.ReturnPages(app, pages)
}

// setupTree builds /dir1/dir3/file1 and /dir2 (the §3.1 initial state),
// all committed and released.
func setupTree(h *harness, app AppID) (dir1, dir2, dir3, file1 uint64) {
	h.c.Acquire(app, layout.RootIno, true)
	dir1 = h.mkdir(app, layout.RootIno, "dir1")
	dir2 = h.mkdir(app, layout.RootIno, "dir2")
	h.c.commitOne(app, layout.RootIno)
	h.c.commitOne(app, dir1)
	h.c.commitOne(app, dir2)
	dir3 = h.mkdir(app, dir1, "dir3")
	h.c.commitOne(app, dir1)
	h.c.commitOne(app, dir3)
	file1 = h.mkfile(app, dir3, "file1")
	h.c.commitOne(app, dir3)
	h.c.commitOne(app, file1)
	for _, ino := range []uint64{file1, dir3, dir2, dir1, layout.RootIno} {
		if err := h.c.Release(app, ino); err != nil {
			h.t.Fatalf("setup release %d: %v", ino, err)
		}
	}
	return
}

// TestLegitimateRelocationEnhanced is the Rule-2/Rule-3-compliant
// cross-directory rename of a non-empty directory on ArckFS+.
func TestLegitimateRelocationEnhanced(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	dir1, dir2, dir3, _ := setupTree(h, app)

	for _, ino := range []uint64{dir1, dir2, dir3} {
		if _, err := h.c.Acquire(app, ino, true); err != nil {
			t.Fatal(err)
		}
	}
	h.c.RenameLockAcquire(app)
	h.rename(app, dir1, dir2, dir3, "dir3")
	// Rule 2: commit the new parent before releasing the old one.
	if err := h.c.commitOne(app, dir2); err != nil {
		t.Fatalf("new parent commit: %v", err)
	}
	h.c.RenameLockRelease(app)

	sh, _ := h.c.ShadowOf(dir3)
	if sh.Parent != dir2 {
		t.Fatalf("dir3 parent = %d, want %d", sh.Parent, dir2)
	}
	// Old parent release now passes: the missing child was renamed away.
	if err := h.c.Release(app, dir1); err != nil {
		t.Fatalf("old parent release: %v", err)
	}
	for _, ino := range []uint64{dir2, dir3} {
		if err := h.c.Release(app, ino); err != nil {
			t.Fatal(err)
		}
	}
	d1, _ := h.c.ShadowOf(dir1)
	d2, _ := h.c.ShadowOf(dir2)
	if d1.ChildCount != 0 || d2.ChildCount != 1 {
		t.Fatalf("childCounts: dir1=%d dir2=%d", d1.ChildCount, d2.ChildCount)
	}
}

// TestBug41OriginalRejectsLegitimateRename shows the §4.1 bug: the same
// compliant relocation fails verification on the old parent under the
// original (Trio artifact) verifier, because it cannot distinguish a
// renamed child from a deleted one.
func TestBug41OriginalRejectsLegitimateRename(t *testing.T) {
	h := newHarness(t, verifier.Original)
	app := h.c.RegisterApp(0, 0)
	dir1, dir2, dir3, _ := setupTree(h, app)

	for _, ino := range []uint64{dir1, dir2, dir3} {
		h.c.Acquire(app, ino, true)
	}
	h.rename(app, dir1, dir2, dir3, "dir3")
	if err := h.c.commitOne(app, dir2); err != nil {
		t.Fatalf("new parent commit under original verifier: %v", err)
	}
	err := h.c.Release(app, dir1)
	if !IsVerificationError(err) {
		t.Fatalf("old parent release = %v, want I3 verification failure (the bug)", err)
	}
	if !strings.Contains(err.Error(), "I3") {
		t.Fatalf("unexpected failure reason: %v", err)
	}
}

// TestAttackScenario31 replays the paper's §3.1 attack step by step and
// checks Trio detects it without exposing a vulnerability.
func TestAttackScenario31(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app1 := h.c.RegisterApp(1, 1) // malicious
	app2 := h.c.RegisterApp(2, 2) // well-behaved
	dir1, dir2, dir3, file1 := setupTree(h, app1)
	// App1 lacks write permission on dir3 and file1.
	h.c.SetACL(dir3, app1, layout.PermRead)
	h.c.SetACL(file1, app1, layout.PermRead)

	// Step 1: App1 acquires dir1 and dir2.
	if _, err := h.c.Acquire(app1, dir1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Acquire(app1, dir2, true); err != nil {
		t.Fatal(err)
	}
	// Step 2: App1 moves dir3 to dir2 via rename() — without following
	// Rules 2/3 (it never commits dir2).
	h.rename(app1, dir1, dir2, dir3, "dir3")

	// Step 3: App2 attempts to acquire dir1 (blocked: App1 holds it).
	if _, err := h.c.Acquire(app2, dir1, false); err == nil {
		t.Fatal("App2 acquired dir1 while App1 held it")
	}

	// Step 4: App1 releases dir1 — verification fails (dir3 missing and
	// non-empty: I3), and dir1 is rolled back with dir3 intact.
	if err := h.c.Release(app1, dir1); !IsVerificationError(err) {
		t.Fatalf("step 4 release = %v, want verification failure", err)
	}
	if _, ok := h.findDentry(dir1, "dir3"); !ok {
		t.Fatal("rollback did not preserve dir3 under dir1")
	}

	// Step 5: App2 acquires dir1 and sees dir3.
	if _, err := h.c.Acquire(app2, dir1, false); err != nil {
		t.Fatal(err)
	}
	sh3, ok := h.c.ShadowOf(dir3)
	if !ok || sh3.Parent != dir1 || sh3.ChildCount != 1 {
		t.Fatalf("dir3 shadow after rollback: %+v ok=%v", sh3, ok)
	}

	// Step 6: App1 corrupts dir2 (scribbles over its log) and releases.
	d2in, _, _ := layout.ReadInode(h.dev, h.g, dir2)
	head := layout.TailHead(h.dev, d2in.DataRoot, 0)
	h.dev.Write(int64(head*layout.PageSize)+2, []byte("garbage-garbage-garbage"))
	if err := h.c.Release(app1, dir2); !IsVerificationError(err) {
		t.Fatalf("step 6 release = %v, want verification failure", err)
	}
	// dir2 was rolled back to its initial, empty state.
	sh2, _ := h.c.ShadowOf(dir2)
	if sh2.ChildCount != 0 {
		t.Fatalf("dir2 childCount after rollback = %d", sh2.ChildCount)
	}
	// dir3 and file1 survived the attack.
	if _, ok := h.c.ShadowOf(file1); !ok {
		t.Fatal("file1 lost")
	}
}

// TestFigure2CircularDependency replays Figure 2: renaming a non-empty
// directory under a newly created sibling deadlocks Rules (1) and (2),
// and Rule (3) — committing the new parent before the rename — resolves
// it.
func TestFigure2CircularDependency(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)

	// Build /dir0/dir2/file, committed; keep dir0 and dir2 held.
	h.c.Acquire(app, layout.RootIno, true)
	dir0 := h.mkdir(app, layout.RootIno, "dir0")
	h.c.commitOne(app, layout.RootIno)
	h.c.commitOne(app, dir0)
	dir2 := h.mkdir(app, dir0, "dir2")
	h.c.commitOne(app, dir0)
	h.c.commitOne(app, dir2)
	h.mkfile(app, dir2, "file")
	h.c.commitOne(app, dir2)

	// Create the new sibling dir1 under dir0 — NOT yet known to the
	// kernel (dir0 not committed since).
	dir1 := h.mkdir(app, dir0, "dir1")

	// Perform the rename dir2 -> dir1/dir2 naively.
	h.c.RenameLockAcquire(app)
	h.rename(app, dir0, dir1, dir2, "dir2")

	// The circular dependency: dir1 cannot commit (Rule 1 — its parent
	// dir0 has not been released/committed since dir1's creation)...
	if err := h.c.commitOne(app, dir1); !IsVerificationError(err) {
		t.Fatalf("commit dir1 = %v, want Rule-1 failure", err)
	}
	// ...and dir0 cannot be released (Rule 2 — dir2 is gone but its
	// verified parent is still dir0 and it is non-empty: I3).
	if err := h.c.Release(app, dir0); !IsVerificationError(err) {
		t.Fatalf("release dir0 = %v, want I3 failure", err)
	}
	h.c.RenameLockRelease(app)

	// --- Rule (3) resolution, from the rolled-back state -------------
	// (the failed release rolled dir0 back and returned it to the
	// kernel; dir1's creation and the rename were undone with it).
	if _, err := h.c.Acquire(app, dir0, true); err != nil {
		t.Fatal(err)
	}
	dir1 = h.mkdir(app, dir0, "dir1")
	// Rule 3: commit the new parent before performing the rename.
	if err := h.c.commitOne(app, dir0); err != nil {
		t.Fatal(err)
	}
	if err := h.c.commitOne(app, dir1); err != nil {
		t.Fatalf("commit dir1 after parent commit: %v", err)
	}
	h.c.RenameLockAcquire(app)
	h.rename(app, dir0, dir1, dir2, "dir2")
	// Rule 2: commit the new parent before releasing the old.
	if err := h.c.commitOne(app, dir1); err != nil {
		t.Fatalf("commit dir1 after rename: %v", err)
	}
	h.c.RenameLockRelease(app)
	if err := h.c.Release(app, dir0); err != nil {
		t.Fatalf("release dir0 after compliant rename: %v", err)
	}
	sh2, _ := h.c.ShadowOf(dir2)
	if sh2.Parent != dir1 {
		t.Fatalf("dir2 parent = %d, want dir1=%d", sh2.Parent, dir1)
	}
}

// TestRelocationRequiresRenameLock: a directory relocation without the
// global rename lease is rejected (§4.6 patch).
func TestRelocationRequiresRenameLock(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	dir1, dir2, dir3, _ := setupTree(h, app)
	for _, ino := range []uint64{dir1, dir2, dir3} {
		h.c.Acquire(app, ino, true)
	}
	h.rename(app, dir1, dir2, dir3, "dir3")
	err := h.c.commitOne(app, dir2)
	if !IsVerificationError(err) || !strings.Contains(err.Error(), "rename lock") {
		t.Fatalf("commit without rename lock = %v", err)
	}
}

// TestRelocationDescendantCheck: renaming a directory into its own
// descendant is rejected (§4.6 case 2).
func TestRelocationDescendantCheck(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	dir1, _, dir3, _ := setupTree(h, app)
	// Try to move dir1 into dir3 (dir3 is dir1's grandchild... child).
	h.c.Acquire(app, layout.RootIno, true)
	h.c.Acquire(app, dir1, true)
	h.c.Acquire(app, dir3, true)
	h.c.RenameLockAcquire(app)
	h.rename(app, layout.RootIno, dir3, dir1, "dir1")
	err := h.c.commitOne(app, dir3)
	if !IsVerificationError(err) || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("descendant rename commit = %v", err)
	}
	h.c.RenameLockRelease(app)
}

// TestRelocationRequiresOldParentHeld: the new-parent check that the
// releasing LibFS currently holds the old parent (§4.1 patch, check 1).
func TestRelocationRequiresOldParentHeld(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	dir1, dir2, dir3, _ := setupTree(h, app)
	h.c.Acquire(app, dir1, true)
	h.c.Acquire(app, dir2, true)
	h.c.Acquire(app, dir3, true)
	h.c.RenameLockAcquire(app)
	h.rename(app, dir1, dir2, dir3, "dir3")
	// Drop dir1 the wrong way first: release it (fails I3, rolls back,
	// restoring dir3's dentry there) — after which app no longer holds it.
	h.c.Release(app, dir1)
	err := h.c.commitOne(app, dir2)
	if !IsVerificationError(err) || !strings.Contains(err.Error(), "old parent") {
		t.Fatalf("commit with old parent released = %v", err)
	}
	h.c.RenameLockRelease(app)
}

// TestFileRenameWithinDirectory: a same-directory rename is a remove+add
// of the same committed inode and needs no rename lock.
func TestFileRenameWithinDirectory(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino := h.mkfile(app, layout.RootIno, "old-name")
	h.c.commitOne(app, layout.RootIno)
	h.c.commitOne(app, ino)
	// Rename: new dentry, invalidate old.
	pages, _ := h.c.GrantPages(app, 0, 1)
	h.appendDentry(layout.RootIno, ino, "new-name", &pages)
	h.unlink(layout.RootIno, "old-name")
	h.c.ReturnPages(app, pages)
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatalf("same-dir rename release: %v", err)
	}
	if _, ok := h.findDentry(layout.RootIno, "new-name"); !ok {
		t.Fatal("new name missing")
	}
	sh, _ := h.c.ShadowOf(ino)
	if sh.Parent != layout.RootIno {
		t.Fatal("parent changed by same-dir rename")
	}
}
