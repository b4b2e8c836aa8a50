package verifier

import (
	"fmt"
	"testing"

	"arckfs/internal/layout"
)

// fileBench is a file whose holder overwrites one block per step, as a
// copy-on-write of one 4 KiB block does: the block pointer at a fixed
// index alternates between two pages. Each step verifies the change
// against the previous view, into the view before that, which is what a
// transfer costs the kernel.
type fileBench struct {
	*img
	tb         testing.TB
	kv         *fakeKV
	old, spare *FileView
	slot       [2]uint64
	turns      int
}

func newFileBench(tb testing.TB, blocks int) *fileBench {
	const per = layout.MapEntriesPerPage
	m := newImg(tb, blocks+blocks/per+64)
	maps := m.pages((blocks + per - 1) / per)
	m.writeFile(uint64(blocks)*layout.PageSize, maps, m.pages(blocks))
	old, err := m.v.ParseFile(imgFile)
	if err != nil {
		tb.Fatal(err)
	}
	return &fileBench{img: m, tb: tb, kv: m.kv(), old: old, slot: [2]uint64{old.Blocks[blocks/2], m.page()}}
}

func (b *fileBench) step() {
	b.turns++
	i := len(b.old.Blocks) / 2
	layout.SetMapEntry(b.dev, b.old.MapPages[i/layout.MapEntriesPerPage], i%layout.MapEntriesPerPage, b.slot[b.turns%2])
	res, err := b.v.VerifyFile(1, imgFile, b.old, b.spare, b.kv)
	if err != nil || len(res.NewPages) != 1 || len(res.FreedPages) != 1 {
		b.tb.Fatalf("step %d: %v %+v", b.turns, err, res)
	}
	b.old, b.spare = res.View, b.old
}

// dirBench is a directory whose holder creates a name on one step and
// unlinks it on the next (one spare record's commit marker set and
// cleared), each step verified against the previous view with the device's
// dirty bits: the step's store dirties the spare's page, a log page shared
// with other records, and the verification reads that page alone. Like
// fileBench it parses into the view before the previous one.
type dirBench struct {
	*img
	tb       testing.TB
	kv       *fakeKV
	old, was *DirView
	spare    layout.DentryRef
	turns    int
}

func newDirBench(tb testing.TB, names int) *dirBench {
	m := newImg(tb, names/50+64)
	recs := make([]rec, names+1)
	for i := range recs {
		recs[i] = rec{name: fmt.Sprintf("file-%07d", i), ino: 100 + uint64(i)}
	}
	recs[names].dead = true // the spare: the last record of tail names%2
	chain := m.pages(names/50 + 4)
	m.writeDir(m.page(), [2][]uint64{chain[:len(chain)/2], chain[len(chain)/2:]}, recs)
	old, err := m.v.ParseDir(imgDir)
	if err != nil || len(old.Entries) != names {
		tb.Fatalf("%d entries: %v", len(old.Entries), err)
	}
	kv := m.kv()
	for _, r := range recs {
		kv.shadows[r.ino] = ShadowInfo{Ino: r.ino, Type: layout.TypeFile, Parent: imgDir, Committed: true}
	}
	// A first verification reads every page of the new device and clears
	// its bit.
	res, err := m.v.VerifyDir(1, imgDir, old, nil, kv)
	if err != nil {
		tb.Fatal(err)
	}
	b := &dirBench{img: m, tb: tb, kv: kv, old: res.View}
	layout.ScanTail(m.dev, layout.TailHead(m.dev, old.Inode.DataRoot, names%2), func(d layout.RawDentry) bool {
		b.spare = d.Ref
		return true
	})
	return b
}

func (b *dirBench) step() {
	b.turns++
	if b.turns%2 == 1 {
		layout.CommitDentry(b.dev, b.spare, len("file-0000000"))
	} else {
		layout.InvalidateDentry(b.dev, b.spare)
	}
	res, err := b.v.VerifyDir(1, imgDir, b.old, b.was, b.kv)
	if err != nil || len(res.Changes) != 1 {
		b.tb.Fatalf("step %d: %v %+v", b.turns, err, res)
	}
	b.old, b.was = res.View, b.old
}

// BenchmarkVerifyFile64M: one overwritten block of a 64 MiB file.
func BenchmarkVerifyFile64M(b *testing.B) {
	fb := newFileBench(b, 64<<20/layout.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.step()
	}
}

// BenchmarkVerifyDir4k: one name created or unlinked among 4096.
func BenchmarkVerifyDir4k(b *testing.B) {
	db := newDirBench(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.step()
	}
}
