package kernel

import (
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/verifier"
)

// liveEntry is one record a test "compaction" writes.
type liveEntry struct {
	name string
	ino  uint64
}

// liveEntries scans dir's log for its committed records.
func (h *harness) liveEntries(dirIno uint64) []liveEntry {
	in, _, _ := layout.ReadInode(h.dev, h.g, dirIno)
	var out []liveEntry
	for ti := 0; ti < int(in.NTails); ti++ {
		layout.ScanTail(h.dev, layout.TailHead(h.dev, in.DataRoot, ti), func(d layout.RawDentry) bool {
			if d.Live {
				out = append(out, liveEntry{string(d.Name), d.Ino})
			}
			return true
		})
	}
	return out
}

// compactInto rewrites tail 0 of dir the way libfs compaction does — the
// given records, complete, into page; page durable; then the head swap —
// except that the caller chooses the records and the page.
func (h *harness) compactInto(dirIno, page uint64, ents []liveEntry) {
	buf := make([]byte, layout.PageSize)
	off := 0
	for _, e := range ents {
		off += layout.EncodeDentry(buf[off:], e.ino, e.name)
	}
	h.dev.Write(int64(page*layout.PageSize), buf)
	h.dev.Persist(int64(page*layout.PageSize), layout.PageSize)
	in, _, _ := layout.ReadInode(h.dev, h.g, dirIno)
	layout.SetTailHead(h.dev, in.DataRoot, 0, page)
	h.dev.Persist(layout.TailHeadOff(in.DataRoot, 0), 8)
}

// dirImage copies dir's inode record, tail-set page and log pages.
func (h *harness) dirImage(dirIno uint64) map[int64][]byte {
	img := map[int64][]byte{}
	grab := func(off, n int64) {
		b := make([]byte, n)
		h.dev.Read(off, b)
		img[off] = b
	}
	grab(layout.InodeOff(h.g, dirIno), layout.InodeSize)
	in, _, _ := layout.ReadInode(h.dev, h.g, dirIno)
	grab(int64(in.DataRoot*layout.PageSize), layout.PageSize)
	for ti := 0; ti < int(in.NTails); ti++ {
		for p := layout.TailHead(h.dev, in.DataRoot, ti); p != 0; p = layout.NextPage(h.dev, p) {
			grab(int64(p*layout.PageSize), layout.PageSize)
		}
	}
	return img
}

// compactionFixture builds /sub (a directory with one file, so it cannot
// be deleted) and five files in the root, all verified and committed,
// with the root re-acquired by app and some dead slots in its log.
func compactionFixture(t *testing.T) (h *harness, app AppID, sub uint64) {
	h = newHarness(t, verifier.Enhanced)
	app = h.c.RegisterApp(0, 0)
	acquire := func(ino uint64) {
		t.Helper()
		if _, err := h.c.Acquire(app, ino, true); err != nil {
			t.Fatal(err)
		}
	}
	release := func(ino uint64) {
		t.Helper()
		if err := h.c.Release(app, ino); err != nil {
			t.Fatal(err)
		}
	}
	acquire(layout.RootIno)
	sub = h.mkdir(app, layout.RootIno, "sub")
	files := []uint64{}
	for _, n := range []string{"f0", "f1", "f2", "f3", "f4", "dead0", "dead1"} {
		files = append(files, h.mkfile(app, layout.RootIno, n))
	}
	release(layout.RootIno)
	h.mkfile(app, sub, "inner")
	release(sub)
	for _, ino := range files {
		release(ino)
	}
	acquire(layout.RootIno)
	h.unlink(layout.RootIno, "dead0")
	h.unlink(layout.RootIno, "dead1")
	if err := h.c.Commit(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	return h, app, sub
}

// TestHonestCompactionVerifies: a log rewritten into a granted page with
// exactly the live set passes verification, and the page accounting
// follows it — the new page becomes the directory's, the old ones free.
func TestHonestCompactionVerifies(t *testing.T) {
	h, app, _ := compactionFixture(t)
	in, _, _ := layout.ReadInode(h.dev, h.g, layout.RootIno)
	oldHead := layout.TailHead(h.dev, in.DataRoot, 0)
	pages, err := h.c.GrantPages(app, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	free := h.c.FreeCount()
	live := h.liveEntries(layout.RootIno)
	h.compactInto(layout.RootIno, pages[0], live)
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatalf("honest compaction rejected: %v", err)
	}
	if got := h.c.FreeCount(); got != free+1 {
		t.Fatalf("free pages %d -> %d, want the old log page back", free, got)
	}
	if o := h.c.pageOwnerAt(pages[0]); o != ownIno(layout.RootIno) {
		t.Fatalf("new log page owner = %#x, want the directory", o)
	}
	if o := h.c.pageOwnerAt(oldHead); o != ownFree {
		t.Fatalf("old log page owner = %#x, want free", o)
	}
	if root, _ := h.c.ShadowOf(layout.RootIno); int(root.ChildCount) != len(live) {
		t.Fatalf("child count %d, want %d", root.ChildCount, len(live))
	}
}

// TestForgedCompactionRejectedAndRolledBack: the verifier is taught
// nothing about compaction, so a "compaction" that smuggles in a change
// the holder could not have made openly fails exactly as that change
// would, and PolicyRollback restores the pre-compaction log byte for
// byte. (Dropping a file's entry or renaming an entry are things a
// holder may do openly — they verify as the unlink and the rename they
// are — so the forgeries here are the ones no legitimate operation
// produces.)
func TestForgedCompactionRejectedAndRolledBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(live []liveEntry, sub uint64) []liveEntry
		// ungranted: write into a page the app handed back first.
		ungranted bool
	}{
		{name: "drops-nonempty-dir", forge: func(live []liveEntry, sub uint64) []liveEntry {
			var out []liveEntry
			for _, e := range live {
				if e.ino != sub {
					out = append(out, e)
				}
			}
			return out
		}},
		{name: "duplicates-entry", forge: func(live []liveEntry, _ uint64) []liveEntry {
			return append(live, live[1])
		}},
		{name: "links-inode-twice", forge: func(live []liveEntry, _ uint64) []liveEntry {
			return append(live, liveEntry{"alias", live[1].ino})
		}},
		{name: "renames-to-invalid", forge: func(live []liveEntry, _ uint64) []liveEntry {
			out := append([]liveEntry(nil), live...)
			out[1].name = "a/b"
			return out
		}},
		{name: "ungranted-page", ungranted: true, forge: func(live []liveEntry, _ uint64) []liveEntry {
			return live
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, app, sub := compactionFixture(t)
			pages, err := h.c.GrantPages(app, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.ungranted {
				h.c.ReturnPages(app, pages)
			}
			before := h.dirImage(layout.RootIno)
			h.compactInto(layout.RootIno, pages[0], tc.forge(h.liveEntries(layout.RootIno), sub))
			err = h.c.Release(app, layout.RootIno)
			if !IsVerificationError(err) {
				t.Fatalf("release = %v, want a verification failure", err)
			}
			h.wantBytes(before, "after rollback")
			// And the restored directory is usable and unchanged.
			if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
				t.Fatalf("acquire after rollback: %v", err)
			}
			if _, ok := h.findDentry(layout.RootIno, "f3"); !ok {
				t.Fatal("f3 missing after rollback")
			}
		})
	}
}

// TestDirTransferParsesOnce pins the verifier's work per transfer of a
// directory at one parse: Commit and a leased release make the view they
// verified the new baseline instead of parsing again, and so does the
// Rule-1 commit of a new directory. An Acquire that wins a dormant lease
// adopts that baseline and parses nothing; only a cold Acquire — after a
// plain release — adds a parse of its own.
func TestDirTransferParsesOnce(t *testing.T) {
	h, app, _ := compactionFixture(t)
	slots := int64(0)
	in, _, _ := layout.ReadInode(h.dev, h.g, layout.RootIno)
	for ti := 0; ti < int(in.NTails); ti++ {
		layout.ScanTail(h.dev, layout.TailHead(h.dev, in.DataRoot, ti), func(layout.RawDentry) bool { slots++; return true })
	}
	if slots == 0 {
		t.Fatal("fixture has no records")
	}
	vs := h.c.VerifierStats()
	parses := func(step string, fn func() error, want int64) {
		t.Helper()
		before := vs.Dentries.Load()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := vs.Dentries.Load() - before; got != want*slots {
			t.Fatalf("%s scanned %d record slots, want %d parse(s) of %d", step, got, want, slots)
		}
	}
	parses("Commit", func() error { return h.c.Commit(app, layout.RootIno) }, 1)
	parses("ReleaseLeased", func() error { _, err := h.c.ReleaseLeased(app, layout.RootIno); return err }, 1)
	other := h.c.RegisterApp(0, 0)
	parses("Acquire of a dormant lease", func() error { _, err := h.c.Acquire(other, layout.RootIno, true); return err }, 0)
	parses("Release", func() error { return h.c.Release(other, layout.RootIno) }, 1)
	parses("cold Acquire", func() error { _, err := h.c.Acquire(other, layout.RootIno, true); return err }, 1)
	parses("Release", func() error { return h.c.Release(other, layout.RootIno) }, 1)

	// A new directory: pending after its parent's release, then its own
	// Rule-1 commit parses it once (one record slot, "x").
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	nd := h.mkdir(app, layout.RootIno, "newdir")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	h.mkfile(app, nd, "x")
	slots = 1
	parses("Commit of a new directory", func() error { return h.c.Commit(app, nd) }, 1)
	parses("Commit again", func() error { return h.c.Commit(app, nd) }, 1)
}
