package kernel

import (
	"slices"
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

// compactInto rewrites tail 0 of dir as a copying compaction would — the
// given records, complete, into page; page durable; then the head swap —
// with the records and the page the caller chooses. The LibFS never
// rewrites a chain (it only splices dead pages out), but a forged one is
// what the verifier must stand up to.
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
	if err := h.c.commitOne(app, layout.RootIno); err != nil {
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
// directory at one parse of what was written since the last one: a
// verification reads only the pages stored to since their bits were last
// cleared, and — while the directory stays mapped — the pages whose bits it
// cleared under that mapping (harvested: the holder's TLB may still store
// to them unmarked), which the first verification after the unmap reads
// once more. A transfer with nothing written since that read scans
// nothing. Commit and a leased release make the view they verified the new
// baseline instead of parsing again, and so does the Rule-1 commit of a
// new directory. An Acquire that wins a dormant lease adopts that baseline
// and parses nothing; only a cold Acquire — after a plain release — adds a
// parse of its own, of every page, and so do a new directory's commit and
// recovery, which have no baseline.
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
		if got := vs.Dentries.Load() - before; got != want {
			t.Fatalf("%s scanned %d record slots, want %d", step, got, want)
		}
	}
	// slotsOn counts the record slots on the distinct log pages of pages.
	slotsOn := func(pages []uint64) (n int64) {
		seen := map[uint64]bool{in.DataRoot: true}
		for _, p := range pages {
			if !seen[p] {
				seen[p], n = true, n+h.pageSlots(p)
			}
		}
		return n
	}
	commit := func() error { return h.c.commitOne(app, layout.RootIno) }
	// The fixture's last commit harvested the page its unlinks wrote.
	harvested := slices.Clone(h.c.shadowGet(layout.RootIno, nil).harvested)
	if slotsOn(harvested) == 0 {
		t.Fatal("the fixture's commit harvested no log page")
	}
	parses("Commit, nothing written", commit, slotsOn(harvested))
	// One create dirties one log page, which joins the harvested ones.
	h.mkfile(app, layout.RootIno, "g")
	ref, _ := h.findDentry(layout.RootIno, "g")
	slots++
	harvested = append(harvested, ref.Page())
	parses("Commit of a create", commit, slotsOn(harvested))
	parses("XferLease", func() error { _, err := h.c.releaseLeased(app, layout.RootIno); return err }, slotsOn(harvested))
	other := h.c.RegisterApp(0, 0)
	parses("Acquire of a dormant lease", func() error { _, err := h.c.Acquire(other, layout.RootIno, true); return err }, 0)
	parses("Release after the unmap", func() error { return h.c.Release(other, layout.RootIno) }, slotsOn(harvested))
	parses("cold Acquire", func() error { _, err := h.c.Acquire(other, layout.RootIno, true); return err }, slots)
	parses("Release", func() error { return h.c.Release(other, layout.RootIno) }, 0)

	// A new directory: pending after its parent's release, then its own
	// Rule-1 commit parses it whole (one record slot, "x") and clears no
	// bit. The next commit reads its page and harvests it, so every commit
	// reads it until the plain release's unmap; that release reads it once
	// more, and after a cold acquire a release reads nothing.
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	nd := h.mkdir(app, layout.RootIno, "newdir")
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	h.mkfile(app, nd, "x")
	parses("Commit of a new directory", func() error { return h.c.commitOne(app, nd) }, 1)
	parses("Commit again", func() error { return h.c.commitOne(app, nd) }, 1)
	parses("Commit a third time", func() error { return h.c.commitOne(app, nd) }, 1)
	parses("Release of the new directory", func() error { return h.c.Release(app, nd) }, 1)
	parses("cold Acquire of the new directory", func() error { _, err := h.c.Acquire(app, nd, true); return err }, 1)
	parses("Release, nothing written", func() error { return h.c.Release(app, nd) }, 0)
}
