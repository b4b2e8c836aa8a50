package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/verifier"
)

// TestFormatWritesOnlyTheRoot: formatting a 256 MiB device, whose two
// tables span 8 MiB, stores the superblock, the root's two records and its
// tail-set page and nothing else, on a fresh device and on a formatted
// one. Every store the cost model charges as a PMWrite counts its bytes in
// Stats.Bytes, so the byte bound also bounds what the model charges.
func TestFormatWritesOnlyTheRoot(t *testing.T) {
	dev := pmem.New(256<<20, nil)
	limit := int64(layout.SuperblockSize + 2*layout.InodeSize + layout.PageSize)
	for _, pass := range []string{"format", "reformat"} {
		bytes0, nt0 := dev.Stats.Bytes.Load(), dev.Stats.NTStores.Load()
		c, err := Format(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g := c.Geometry(); (g.TablePages+g.ShadowPages)*layout.PageSize != 8<<20 {
			t.Fatalf("tables span %d pages, want 8 MiB", g.TablePages+g.ShadowPages)
		}
		if got := dev.Stats.Bytes.Load() - bytes0; got > limit {
			t.Fatalf("%s stored %d bytes, want at most %d (superblock, two records, one page)", pass, got, limit)
		}
		if got := dev.Stats.NTStores.Load() - nt0; got != 0 {
			t.Fatalf("%s streamed %d lines, want none", pass, got)
		}
	}
}

// TestReformatSurvivesACrash: a format over a device that holds committed
// files stores no table, and a crash that keeps only what the format
// fenced mounts as a clean, empty file system: none of the old shadow
// records comes back as an orphan.
func TestReformatSurvivesACrash(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	inos := []uint64{layout.RootIno}
	for i := 0; i < 20; i++ {
		inos = append(inos, h.mkfile(app, layout.RootIno, fmt.Sprintf("f%02d", i)))
	}
	for i, r := range h.c.Transfer(app, inos, XferCommit, nil, nil) {
		if r.Err != nil {
			t.Fatalf("commit of inode %d: %v", inos[i], r.Err)
		}
	}
	if rep, err := Fsck(h.dev, Options{}); err != nil || !rep.Clean() || rep.CommittedInodes != len(inos) {
		t.Fatalf("before the reformat: %v %v, want %d clean inodes", rep, err, len(inos))
	}
	h.dev.EnableTracking()
	if _, err := Format(h.dev, Options{InodeCap: h.g.InodeCap, NTails: 2}); err != nil {
		t.Fatal(err)
	}
	img := h.dev.CrashImage(pmem.CrashDropAll)
	_, rep, err := Mount(pmem.Restore(img, nil), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.CommittedInodes != 1 {
		t.Fatalf("after a crash that kept the reformat's fences: %s, want one clean inode", rep)
	}
}

// TestReformatWithMoreInodes: a format with four times the inodes moves
// its shadow table onto pages that held a LibFS's data, here committed
// shadow records forged with the next format ID. The format zeroes those
// pages, and the device mounts clean and empty, with or without a crash
// that keeps only what the format fenced.
func TestReformatWithMoreInodes(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	inos := []uint64{layout.RootIno}
	for i := 0; i < 20; i++ {
		inos = append(inos, h.mkfile(app, layout.RootIno, fmt.Sprintf("f%02d", i)))
	}
	for i, r := range h.c.Transfer(app, inos, XferCommit, nil, nil) {
		if r.Err != nil {
			t.Fatalf("commit of inode %d: %v", inos[i], r.Err)
		}
	}
	forged := pmem.New(layout.PageSize, nil)
	fg := layout.Geometry{InodeCap: 2, FormatID: h.g.FormatID + 1}
	layout.WriteShadow(forged, fg, 1, &layout.Inode{Type: layout.TypeFile, Nlink: 1, Parent: layout.RootIno}, &layout.ShadowExtra{Committed: true})
	pages, err := h.c.GrantPages(app, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	const inodes = 1024
	shadowStart, shadowPages := uint64(1+inodes*layout.InodeSize/layout.PageSize), uint64(inodes*layout.InodeSize/layout.PageSize)
	over := 0
	for _, p := range pages {
		for off := int64(p * layout.PageSize); off < int64((p+1)*layout.PageSize); off += layout.InodeSize {
			h.dev.Write(off, forged.Slice(layout.ShadowOff(fg, 1), layout.InodeSize))
		}
		if p >= shadowStart && p < shadowStart+shadowPages {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("no page of %v lies where the new shadow table will", pages)
	}
	h.dev.EnableTracking()
	c, err := Format(h.dev, Options{InodeCap: inodes, NTails: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g := c.Geometry(); g.ShadowStart != shadowStart || g.ShadowPages != shadowPages {
		t.Fatalf("shadow table at %d+%d pages, want %d+%d", g.ShadowStart, g.ShadowPages, shadowStart, shadowPages)
	}
	for _, dev := range []*pmem.Device{h.dev, pmem.Restore(h.dev.CrashImage(pmem.CrashDropAll), nil)} {
		_, rep, err := Mount(dev, Options{}, false)
		if err != nil || !rep.Clean() || rep.CommittedInodes != 1 {
			t.Fatalf("mount after the reformat: %v %v, want one clean inode", rep, err)
		}
	}
}

// TestAnEarlierFormatsRecordIsNoInode: a LibFS that links a granted inode
// number without writing its record is refused, though the slot holds a
// record an earlier format committed there, with a valid checksum and the
// directory as its parent; and Mount reads the slot as free.
func TestAnEarlierFormatsRecordIsNoInode(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	old := h.mkfile(app, layout.RootIno, "old")
	for _, ino := range []uint64{layout.RootIno, old} {
		if err := h.c.commitOne(app, ino); err != nil {
			t.Fatal(err)
		}
	}
	was := h.g
	c, err := Format(h.dev, Options{Mode: verifier.Enhanced, InodeCap: was.InodeCap, NTails: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.c, h.g = c, c.Geometry()
	if in, ok, corrupt := layout.ReadInode(h.dev, was, old); !ok || corrupt || in.Parent != layout.RootIno {
		t.Fatalf("the earlier format's record of %d: %+v ok=%v corrupt=%v", old, in, ok, corrupt)
	}

	app = h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	ino, pages := h.grant(app, 4)
	if ino != old {
		t.Fatalf("granted inode %d, want the earlier format's %d", ino, old)
	}
	h.appendDentry(layout.RootIno, ino, "stale", &pages)
	h.c.ReturnPages(app, pages)
	if err := h.c.commitOne(app, layout.RootIno); err == nil {
		t.Fatal("a link to a granted inode with no record of this format was accepted")
	}
	if _, ok, corrupt := layout.ReadInode(h.dev, h.g, ino); ok || corrupt {
		t.Fatalf("inode %d reads ok=%v corrupt=%v, want free", ino, ok, corrupt)
	}
	_, rep, err := Mount(h.dev, Options{}, false)
	if err != nil || !rep.Clean() || rep.CommittedInodes != 1 {
		t.Fatalf("mount: %v %v, want one clean inode", rep, err)
	}
}

// TestMountRejectsADamagedFormatID: a superblock of another format ID,
// with a valid checksum, matches none of the device's records, the root's
// included, and Mount returns an error rather than panic. (A torn ID fails
// the superblock's checksum, as any torn field does.)
func TestMountRejectsADamagedFormatID(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	img := bytes.Clone(h.dev.Slice(0, h.dev.Size()))
	if _, err := Format(h.dev, Options{InodeCap: h.g.InodeCap, NTails: 2}); err != nil {
		t.Fatal(err)
	}
	dev := pmem.Restore(img, nil)
	dev.Write(0, h.dev.Slice(0, layout.SuperblockSize))
	if _, _, err := Mount(dev, Options{}, true); err == nil {
		t.Fatal("Mount under a superblock of another format ID succeeded")
	}
}
