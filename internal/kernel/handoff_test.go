package kernel

import (
	"bytes"
	"errors"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/verifier"
)

// mkdatafile creates a one-block regular file under dirIno, returning its
// ino, map page and data block.
func (h *harness) mkdatafile(app AppID, dirIno uint64, name string) (ino, mapPage, block uint64) {
	h.t.Helper()
	ino, pages := h.grant(app, 3)
	mapPage, block = pages[0], pages[1]
	pages = pages[2:]
	layout.ZeroPage(h.dev, mapPage)
	layout.SetMapEntry(h.dev, mapPage, 0, block)
	h.dev.Persist(int64(mapPage*layout.PageSize), layout.PageSize)
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite, Nlink: 1,
		Parent: dirIno, DataRoot: mapPage, Size: layout.PageSize}
	layout.WriteInode(h.dev, h.g, ino, &in)
	h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
	h.appendDentry(dirIno, ino, name, &pages)
	h.c.ReturnPages(app, pages)
	return ino, mapPage, block
}

// grab copies device ranges for a later byte-for-byte comparison.
func (h *harness) grab(ranges map[int64]int64) map[int64][]byte {
	img := map[int64][]byte{}
	for off, n := range ranges {
		b := make([]byte, n)
		h.dev.Read(off, b)
		img[off] = b
	}
	return img
}

// wantBytes fails the test unless the device still holds img.
func (h *harness) wantBytes(img map[int64][]byte, what string) {
	h.t.Helper()
	for off, want := range img {
		got := make([]byte, len(want))
		h.dev.Read(off, got)
		if !bytes.Equal(got, want) {
			h.t.Fatalf("%s: bytes at %#x differ from the saved image", what, off)
		}
	}
}

// TestHandOverScribbleIsADelta: a write slipped through a dormant mapping
// — after the holder's leased release verified the inode, before the next
// application acquires it — must not become the next holder's baseline.
// The acquire adopts the snapshot of the verified view and parses nothing,
// so the scribble surfaces as a delta at the next release, is rejected on
// its merits, and the rollback restores the bytes the release verified.
// (With an acquire-time parse the scribble was read back as baseline and
// never verified by anyone.)
func TestHandOverScribbleIsADelta(t *testing.T) {
	// untouched: B releases without a change of its own. own work: B adds
	// an honest file first — it is judged together with the scribble, so
	// its work goes with the rollback: the price of not re-verifying at the
	// acquire is that the next holder answers for the dormant bytes.
	for _, own := range []bool{false, true} {
		name := "dir, untouched"
		if own {
			name = "dir, own work"
		}
		t.Run(name, func(t *testing.T) {
			h, a, sub := compactionFixture(t)
			if _, err := h.c.releaseLeased(a, layout.RootIno); err != nil {
				t.Fatal(err)
			}
			verified := h.dirImage(layout.RootIno)
			// A record that parses but no release could get verified: a second
			// link to a file committed under another directory.
			inner, _ := h.findDentry(sub, "inner")
			d, _ := layout.ReadDentry(h.dev, inner)
			var none []uint64
			h.appendDentry(layout.RootIno, d.Ino, "alias", &none)

			b := h.c.RegisterApp(0, 0)
			parsed := h.c.VerifierStats().Dentries.Load()
			if _, err := h.c.Acquire(b, layout.RootIno, true); err != nil {
				t.Fatal(err)
			}
			if got := h.c.VerifierStats().Dentries.Load() - parsed; got != 0 {
				t.Fatalf("acquire of a dormant lease scanned %d record slots, want 0", got)
			}
			if own {
				h.mkfile(b, layout.RootIno, "mine")
			}
			if err := h.c.Release(b, layout.RootIno); !IsVerificationError(err) {
				t.Fatalf("release over a scribbled log = %v, want a verification failure", err)
			}
			h.wantBytes(verified, "after rollback")
			for _, n := range []string{"alias", "mine"} {
				if _, ok := h.findDentry(layout.RootIno, n); ok {
					t.Fatalf("entry %q survived the rollback", n)
				}
			}
		})
	}
	t.Run("file", func(t *testing.T) {
		h := newHarness(t, verifier.Enhanced)
		a := h.c.RegisterApp(0, 0)
		if _, err := h.c.Acquire(a, layout.RootIno, true); err != nil {
			t.Fatal(err)
		}
		f, mapPage, _ := h.mkdatafile(a, layout.RootIno, "f")
		if err := h.c.Release(a, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		if _, err := h.c.releaseLeased(a, f); err != nil {
			t.Fatal(err)
		}
		verified := h.grab(map[int64]int64{
			layout.InodeOff(h.g, f):          layout.InodeSize,
			int64(mapPage * layout.PageSize): layout.PageSize,
		})
		// A second block pointer aimed at a page that belongs to another
		// inode (the root's tail set), and a size that makes it readable.
		root, _ := h.c.ShadowOf(layout.RootIno)
		layout.SetMapEntry(h.dev, mapPage, 1, root.DataRoot)
		h.dev.Persist(int64(mapPage*layout.PageSize), layout.PageSize)
		in, _, _ := layout.ReadInode(h.dev, h.g, f)
		in.Size = 2 * layout.PageSize
		layout.WriteInode(h.dev, h.g, f, &in)
		h.dev.Persist(layout.InodeOff(h.g, f), layout.InodeSize)

		b := h.c.RegisterApp(0, 0)
		parsed := h.c.VerifierStats().Pages.Load()
		if _, err := h.c.Acquire(b, f, true); err != nil {
			t.Fatal(err)
		}
		if got := h.c.VerifierStats().Pages.Load() - parsed; got != 0 {
			t.Fatalf("acquire of a dormant lease walked %d map pages, want 0", got)
		}
		if err := h.c.Release(b, f); !IsVerificationError(err) {
			t.Fatalf("untouched release over a scribbled block map = %v, want a verification failure", err)
		}
		h.wantBytes(verified, "after rollback")
		if o := h.c.pageOwnerAt(root.DataRoot); o != ownIno(layout.RootIno) {
			t.Fatalf("root tail set owner = %#x after the attack, want the root", o)
		}
	})
}

// TestReclaimWithoutAcquireDropsBaseline: only an acquire adopts a dormant
// holder's snapshot. A lease reclaimed for any other reason — a permission
// change, a removal check, a relocation — drops it, and the next acquire
// is cold: it parses once.
func TestReclaimWithoutAcquireDropsBaseline(t *testing.T) {
	coldAcquire := func(t *testing.T, h *harness, ino uint64, slots int64) {
		t.Helper()
		other := h.c.RegisterApp(0, 0)
		before := h.c.VerifierStats().Dentries.Load()
		if _, err := h.c.Acquire(other, ino, true); err != nil {
			t.Fatal(err)
		}
		if got := h.c.VerifierStats().Dentries.Load() - before; got != slots {
			t.Fatalf("acquire after the reclaim scanned %d record slots, want one parse of %d", got, slots)
		}
	}
	t.Run("SetACL", func(t *testing.T) {
		h, a, sub := compactionFixture(t)
		if _, err := h.c.Acquire(a, sub, true); err != nil {
			t.Fatal(err)
		}
		if _, err := h.c.releaseLeased(a, sub); err != nil {
			t.Fatal(err)
		}
		h.c.SetACL(sub, a, layout.PermRead)
		coldAcquire(t, h, sub, 1)
	})
	t.Run("removal", func(t *testing.T) {
		// B unlinks the non-empty /sub while A holds it dormant: the
		// removal check reclaims A's lease, then I3 refuses the removal.
		h, a, sub := compactionFixture(t)
		if _, err := h.c.Acquire(a, sub, true); err != nil {
			t.Fatal(err)
		}
		if _, err := h.c.releaseLeased(a, sub); err != nil {
			t.Fatal(err)
		}
		if err := h.c.Release(a, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		b := h.c.RegisterApp(0, 0)
		if _, err := h.c.Acquire(b, layout.RootIno, true); err != nil {
			t.Fatal(err)
		}
		h.unlink(layout.RootIno, "sub")
		if err := h.c.Release(b, layout.RootIno); !IsVerificationError(err) {
			t.Fatalf("removal of a non-empty directory = %v, want a verification failure", err)
		}
		coldAcquire(t, h, sub, 1)
	})
	t.Run("RelocateIn", func(t *testing.T) {
		h := newHarness(t, verifier.Enhanced)
		a := h.c.RegisterApp(0, 0)
		dir1, dir2, dir3, _ := setupTree(h, a)
		for _, ino := range []uint64{dir1, dir2, dir3} {
			if _, err := h.c.Acquire(a, ino, true); err != nil {
				t.Fatal(err)
			}
		}
		// The child is dormant when the new parent's commit relocates it.
		if _, err := h.c.releaseLeased(a, dir3); err != nil {
			t.Fatal(err)
		}
		h.c.RenameLockAcquire(a)
		h.rename(a, dir1, dir2, dir3, "dir3")
		if err := h.c.commitOne(a, dir2); err != nil {
			t.Fatalf("new parent commit: %v", err)
		}
		h.c.RenameLockRelease(a)
		coldAcquire(t, h, dir3, 1)
	})
}

// TestReleaseBatchIsolatesFailure: a verification failure on one inode of
// a batch tears down that inode only — policy applied, mapping revoked —
// while the rest are released (here: left dormant) as if alone.
func TestReleaseBatchIsolatesFailure(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	var files []uint64
	for _, n := range []string{"f0", "f1", "f2", "f3"} {
		files = append(files, h.mkfile(app, layout.RootIno, n))
	}
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	for _, ino := range files {
		if err := h.c.commitOne(app, ino); err != nil {
			t.Fatal(err)
		}
	}
	const bad = 2
	verified := h.grab(map[int64]int64{layout.InodeOff(h.g, files[bad]): layout.InodeSize})
	in, _, _ := layout.ReadInode(h.dev, h.g, files[bad])
	in.UID = 42 // a field no LibFS may change
	layout.WriteInode(h.dev, h.g, files[bad], &in)
	h.dev.Persist(layout.InodeOff(h.g, files[bad]), layout.InodeSize)

	st := h.c.Stats.Snapshot()
	res := h.c.Transfer(app, files, XferLease, nil, nil)
	if len(res) != len(files) {
		t.Fatalf("%d results for %d inodes", len(res), len(files))
	}
	for i, r := range res {
		if i == bad {
			if !IsVerificationError(r.Err) || r.Mapping != nil {
				t.Fatalf("forged inode: mapping %v, err %v; want no mapping and a verification failure", r.Mapping, r.Err)
			}
			continue
		}
		if r.Err != nil || !r.Mapping.Valid() || !r.Mapping.dormant.Load() {
			t.Fatalf("inode %d: err %v, mapping %+v; want a dormant lease", files[i], r.Err, r.Mapping)
		}
	}
	h.wantBytes(verified, "forged inode after rollback")
	if se := h.c.shadowGet(files[bad], nil); se.owner != 0 || se.mapping != nil || se.snap != nil {
		t.Fatalf("forged inode not torn down: owner %d mapping %v", se.owner, se.mapping)
	}
	d := h.c.Stats.Snapshot()
	if d.Syscalls-st.Syscalls != 1 || d.Releases-st.Releases != 4 || d.LeasedReleases-st.LeasedReleases != 4 ||
		d.Verifications-st.Verifications != 4 || d.VerifyFailures-st.VerifyFailures != 1 || d.Rollbacks-st.Rollbacks != 1 {
		t.Fatalf("counters moved %+v -> %+v; want 1 crossing, 4 releases, 4 verifications, 1 failure, 1 rollback", st, d)
	}
}

// TestRollbackAfterReuse: after leased handoff turns, in which each
// verification parses into the storage of the snapshot superseded before
// the last and the new snapshot takes over the old one's rollback buffer,
// a damaged release rolls back to exactly the bytes the last good release
// copied — the directory's, and a shared file's inode record and map
// pages. A donated buffer that still backed the baseline, or a view that
// shared storage with it, would restore something else.
func TestRollbackAfterReuse(t *testing.T) {
	b := newHandoffBench(t)
	for b.turns < 5 {
		b.turn()
	}
	h, app := b.harness, b.apps[b.turns%2]
	f := b.shared[1]
	good := h.dirImage(b.dir)
	fileRanges := map[int64]int64{layout.InodeOff(h.g, f): layout.InodeSize}
	for _, p := range h.c.shadowGet(f, nil).snap.file.MapPages {
		fileRanges[int64(p*layout.PageSize)] = layout.PageSize
	}
	for off, bytes := range h.grab(fileRanges) {
		good[off] = bytes
	}

	acq := append([]uint64{layout.RootIno, b.dir}, b.shared[:]...)
	if _, err := h.c.AcquireBatch(app, acq, nil, nil); err != nil {
		t.Fatal(err)
	}
	var none []uint64
	h.appendDentry(b.dir, h.g.InodeCap-1, "forged", &none) // an inode no one was granted
	in, _, _ := layout.ReadInode(h.dev, h.g, f)
	in.MTime++
	layout.WriteInode(h.dev, h.g, f, &in)
	other, _, _ := layout.ReadInode(h.dev, h.g, b.shared[2])
	layout.SetMapEntry(h.dev, in.DataRoot, 0, layout.MapEntry(h.dev, other.DataRoot, 0)) // another file's block
	for i, r := range h.c.Transfer(app, acq, XferLease, nil, nil) {
		if damaged := acq[i] == b.dir || acq[i] == f; damaged != IsVerificationError(r.Err) || !damaged && r.Err != nil {
			t.Fatalf("inode %d: %v", acq[i], r.Err)
		}
	}
	h.wantBytes(good, "after the rollback")
}

// TestReleaseBatchCap: a batch longer than MaxReleaseBatch is refused
// whole — nothing released — at the price of the crossing.
func TestReleaseBatchCap(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	inos := make([]uint64, MaxReleaseBatch+1)
	for i := range inos {
		inos[i] = layout.RootIno
	}
	before := h.c.Stats.Snapshot()
	for _, r := range h.c.Transfer(app, inos, XferRelease, nil, nil) {
		if !errors.Is(r.Err, fsapi.ErrInval) {
			t.Fatalf("oversized batch: %v, want ErrInval", r.Err)
		}
	}
	after := h.c.Stats.Snapshot()
	if after.Syscalls-before.Syscalls != 1 || after.Releases != before.Releases {
		t.Fatalf("oversized batch: %d crossings, %d releases; want 1 and 0",
			after.Syscalls-before.Syscalls, after.Releases-before.Releases)
	}
	if h.c.OwnerOf(layout.RootIno) != app {
		t.Fatal("oversized batch released an inode")
	}
	if res := h.c.Transfer(app, inos[:1], XferRelease, nil, nil); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
}
