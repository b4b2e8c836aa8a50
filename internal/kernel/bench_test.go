package kernel

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arckfs/internal/layout"
	"arckfs/internal/race"
	"arckfs/internal/verifier"
)

// handoffBench replays the kernel's side of the repo benchmark's handoff
// workload with a hand-rolled LibFS: two applications alternate on the
// root, a directory of 220 static files, 4 shared 512-block files and the
// peer's batch of 16. A turn takes the root, the directory and the shared
// files back in one AcquireBatch (the root's lease is lost every turn: the
// peer resolved its paths through it), unlinks the peer's batch, creates
// its own, touches the shared files and releases the 22 inodes in one
// leased batch, in the LibFS's Rule-1 order: the root, the directory, then
// the files by inode number. Records are re-committed in the slots their
// names first took, so the log does not grow with the turn count.
type handoffBench struct {
	*harness
	apps   [2]AppID
	dir    uint64
	shared [4]uint64
	slots  [2][8][16]layout.DentryRef // [app][batch][i]
	names  [2][8][16]string
	live   [2][16]uint64 // each application's batch now in the directory
	turns  int
	rel    []uint64 // the turn's release list
	ms     []*Mapping
	res    []Released
}

func newHandoffBench(tb testing.TB) *handoffBench {
	const fileBlocks = 512
	b := &handoffBench{harness: newSizedHarness(tb, verifier.Enhanced, 4*fileBlocks+1024, 2048)}
	h := b.harness
	a := h.c.RegisterApp(0, 0)
	b.apps = [2]AppID{a, h.c.RegisterApp(0, 0)}
	h.c.Acquire(a, layout.RootIno, true)
	b.dir = h.mkdir(a, layout.RootIno, "h")
	h.c.commitOne(a, layout.RootIno)
	h.c.commitOne(a, b.dir)
	var inos []uint64
	for i := 0; i < 220; i++ {
		inos = append(inos, h.mkfile(a, b.dir, fmt.Sprintf("static-%03d-%x", i, i*2654435761)))
	}
	for i := range b.shared {
		ino, pages := h.grant(a, fileBlocks+3)
		mapPages, blocks := pages[:2], pages[2:2+fileBlocks]
		for _, p := range mapPages {
			layout.ZeroPage(h.dev, p)
		}
		layout.SetNextPage(h.dev, mapPages[0], mapPages[1])
		for k, blk := range blocks {
			layout.SetMapEntry(h.dev, mapPages[k/layout.MapEntriesPerPage], k%layout.MapEntriesPerPage, blk)
		}
		in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite, Nlink: 1,
			Parent: b.dir, DataRoot: mapPages[0], Size: fileBlocks * layout.PageSize}
		layout.WriteInode(h.dev, h.g, ino, &in)
		rest := pages[2+fileBlocks:]
		h.appendDentry(b.dir, ino, fmt.Sprintf("data-%d", i), &rest)
		h.c.ReturnPages(a, rest)
		b.shared[i] = ino
		inos = append(inos, ino)
	}
	// Reserve every batch name's slot: a record that was never committed.
	for app := range b.slots {
		for batch := range b.slots[app] {
			for i := range b.slots[app][batch] {
				name := fmt.Sprintf("%c-%x-%02d", 'a'+app, (batch*16+i)*40503, i)
				pages, err := h.c.GrantPages(a, 0, 1)
				if err != nil {
					tb.Fatal(err)
				}
				ref := h.appendDentry(b.dir, 1, name, &pages)
				layout.InvalidateDentry(h.dev, ref)
				h.c.ReturnPages(a, pages)
				b.names[app][batch][i], b.slots[app][batch][i] = name, ref
			}
		}
	}
	b.releaseAll(a, append([]uint64{layout.RootIno, b.dir}, inos...))
	return b
}

func (b *handoffBench) releaseAll(app AppID, inos []uint64) {
	for len(inos) > 0 {
		n := min(len(inos), MaxReleaseBatch)
		b.res = b.c.Transfer(app, inos[:n], XferLease, nil, b.res[:0])
		for i, r := range b.res {
			if r.Err != nil {
				b.t.Fatalf("turn %d: release of inode %d: %v", b.turns, inos[i], r.Err)
			}
		}
		inos = inos[n:]
	}
}

func (b *handoffBench) turn() {
	h, me := b.harness, b.turns%2
	app, batch := b.apps[me], (b.turns/2)%8
	// The shared files come back dormant, and the release takes them back
	// in-kernel. (On the first turn they are the app's own dormant leases,
	// which the batch skips; the release takes those back the same way.)
	acq := [2 + len(b.shared)]uint64{layout.RootIno, b.dir}
	copy(acq[2:], b.shared[:])
	var err error
	if b.ms, err = h.c.AcquireBatch(app, acq[:], nil, b.ms[:0]); err != nil {
		b.t.Fatalf("turn %d: acquire: %v", b.turns, err)
	}
	if b.turns > 0 {
		peerBatch := ((b.turns - 1) / 2) % 8
		for i, ino := range b.live[1-me] {
			layout.InvalidateDentry(h.dev, b.slots[1-me][peerBatch][i])
			layout.FreeInode(h.dev, h.g, ino)
		}
	}
	inos, err := h.c.GrantInodes(app, 16)
	if err != nil {
		b.t.Fatal(err)
	}
	for i, ino := range inos {
		in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead | layout.PermWrite, Nlink: 1, Parent: b.dir}
		layout.WriteInode(h.dev, h.g, ino, &in)
		ref, name := b.slots[me][batch][i], b.names[me][batch][i]
		layout.WriteDentryBody(h.dev, ref, ino, name)
		layout.CommitDentry(h.dev, ref, len(name))
	}
	copy(b.live[me][:], inos)
	for _, ino := range b.shared {
		in, _, _ := layout.ReadInode(h.dev, h.g, ino)
		in.MTime++
		layout.WriteInode(h.dev, h.g, ino, &in)
	}
	b.rel = append(append(append(b.rel[:0], layout.RootIno, b.dir), inos...), b.shared[:]...)
	slices.Sort(b.rel[2:])
	b.releaseAll(app, b.rel)
	b.turns++
}

// TestHandoffTurns runs the benchmark's turn as a test: every release of
// every turn verifies, and the directory ends with the names it should.
// The root's pages, which no turn writes, are all clean.
// From the third turn on each turn's directory verification reads the log
// pages that turn's unlinks and creates wrote, and those the previous
// turn's wrote — its leased release harvested them under a live mapping,
// so this turn's reads them again after the unmap — and no other: every
// other page of the directory, and its tail set, comes from the baseline.
// (The setup wrote every page and leased them: the first turn, under the
// same mapping, reads them all, and the second once more.)
func TestHandoffTurns(t *testing.T) {
	b := newHandoffBench(t)
	vs := b.c.VerifierStats()
	logPages := int64(len(b.c.shadowGet(b.dir, nil).snap.dir.Pages))
	rootPages := 1 + int64(len(b.c.shadowGet(layout.RootIno, nil).snap.dir.Pages))
	for i := 0; i < 40; i++ {
		written := map[uint64]bool{}
		for k := max(b.turns-1, 0); k <= b.turns; k++ {
			// Turn k creates batch k/2 of app k%2 and unlinks the peer's
			// batch of turn k-1.
			for _, ref := range b.slots[k%2][(k/2)%8] {
				written[ref.Page()] = true
			}
			if k > 0 {
				for _, ref := range b.slots[1-k%2][((k-1)/2)%8] {
					written[ref.Page()] = true
				}
			}
		}
		wantRecs := int64(0)
		for p := range written {
			wantRecs += b.pageSlots(p)
		}
		recs, pages, clean := vs.Dentries.Load(), vs.Pages.Load(), vs.PagesClean.Load()
		b.turn()
		recs, pages, clean = vs.Dentries.Load()-recs, vs.Pages.Load()-pages, vs.PagesClean.Load()-clean
		// Each shared file's two map pages are read whole, every turn.
		wantClean := rootPages + 1 + logPages - int64(len(written))
		if i > 1 && (recs != wantRecs || pages != int64(len(written))+8 || clean != wantClean) {
			t.Fatalf("turn %d: %d records on %d pages read, %d pages clean; want %d records on %d pages of %d written, 8 map pages, and %d clean",
				i, recs, pages, clean, wantRecs, len(written), logPages, wantClean)
		}
	}
	if sh, _ := b.c.ShadowOf(b.dir); sh.ChildCount != 220+4+16 {
		t.Fatalf("the directory has %d verified children, want %d", sh.ChildCount, 220+4+16)
	}
}

// TestHandoffTurnAllocations pins what the kernel's side of a handoff turn
// leaves on the Go heap. Most of it outlives the turn: per created file its
// shadow entry, its snapshot (one object), its name and the mapping its
// release leaves dormant, and the mapping of each of the 6 inodes the turn
// acquires. The rest is the inode grant and the directory verification's
// lists of what changed. A superseded snapshot's struct and view storage,
// the directory's entry list among it, are reused, and so are the results
// of each verification and crossing.
func TestHandoffTurnAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b := newHandoffBench(t)
	for b.turns < 16 {
		b.turn()
	}
	const limit = 83
	got := testing.AllocsPerRun(16, b.turn)
	t.Logf("%v allocations a turn", got)
	if got > limit {
		t.Fatalf("a handoff turn allocates %v objects in the kernel, want at most %d", got, limit)
	}
}

// BenchmarkReleaseBatchHandoffTurn: one handoff turn — one AcquireBatch of
// the root, the directory and the 4 shared files, one inode grant, and one
// 22-inode leased Transfer that verifies the root, 16 removed and 16 added
// names among 240, 16 new files and 4 touched 512-block files.
func BenchmarkReleaseBatchHandoffTurn(b *testing.B) {
	hb := newHandoffBench(b)
	hb.turn()
	hb.turn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.turn()
	}
}

// BenchmarkFileCommitBesideHandoff: a third application commits its own
// small files, one op each, on another goroutine while handoff turns —
// whose batches lead with the directory — run until it is done. It reports
// the commits' p99 and the turn rate: what a batch's directory crossing
// costs the tenants beside it.
func BenchmarkFileCommitBesideHandoff(b *testing.B) {
	hb := newHandoffBench(b)
	hb.turn()
	hb.turn()
	h := hb.harness
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	var files []uint64
	for i := 0; i < 4; i++ {
		ino, _, _ := h.mkdatafile(app, layout.RootIno, fmt.Sprintf("tenant-%d", i))
		files = append(files, ino)
	}
	for _, ino := range append([]uint64{layout.RootIno}, files...) {
		if err := h.c.commitOne(app, ino); err != nil {
			b.Fatal(err)
		}
	}
	// A handoff turn acquires the root, so the third app leaves it.
	if _, err := h.c.releaseLeased(app, layout.RootIno); err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, b.N)
	var done atomic.Bool
	b.ResetTimer()
	go func() {
		defer done.Store(true)
		for i := range lat {
			ino := files[i%len(files)]
			in, _, _ := layout.ReadInode(h.dev, h.g, ino)
			in.MTime++
			layout.WriteInode(h.dev, h.g, ino, &in)
			h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
			t0 := time.Now()
			if err := h.c.commitOne(app, ino); err != nil {
				b.Error(err)
				return
			}
			lat[i] = time.Since(t0)
		}
	}()
	turns := 0
	for ; !done.Load(); turns++ {
		hb.turn()
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(turns)/b.Elapsed().Seconds(), "turns/s")
}
