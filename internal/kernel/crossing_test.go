package kernel

import (
	"slices"
	"sync"
	"testing"
	"time"

	"arckfs/internal/layout"
	"arckfs/internal/race"
	"arckfs/internal/verifier"
)

// TestCrossingIsOneFence pins what a release crossing costs in PM. A
// handoff turn's 21-inode ReleaseBatch issues one fence and flushes each
// record it writes once, one line a record: 21 shadow records (the
// directory, 16 created and 4 touched files) and 16 freed shadows, which go
// by their type word while the LibFS already freed the inode records —
// 21 + 16 = 37. A freed inode whose record the LibFS left live costs its
// line more.
func TestCrossingIsOneFence(t *testing.T) {
	b := newHandoffBench(t)
	b.turn()
	b.turn() // from here on each turn frees the peer's batch
	fences, flushes := b.dev.Stats.Fences.Load(), b.dev.Stats.Flushes.Load()
	b.turn()
	if f, l := b.dev.Stats.Fences.Load()-fences, b.dev.Stats.Flushes.Load()-flushes; f != 1 || l != (1+16+4)+16 {
		t.Fatalf("a handoff turn's crossing issued %d fences and %d flushes, want 1 and %d", f, l, (1+16+4)+16)
	}

	for _, zeroed := range []bool{true, false} {
		h := newHarness(t, verifier.Enhanced)
		app := h.c.RegisterApp(0, 0)
		h.c.Acquire(app, layout.RootIno, true)
		ino := h.mkfile(app, layout.RootIno, "f")
		for _, i := range []uint64{layout.RootIno, ino} {
			if err := h.c.Commit(app, i); err != nil {
				t.Fatal(err)
			}
		}
		h.unlink(layout.RootIno, "f")
		want := int64(1 + 1 + 1) // root shadow, freed shadow, the record freed for the LibFS
		if zeroed {
			layout.FreeInode(h.dev, h.g, ino)
			h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
			want--
		}
		fences, flushes := h.dev.Stats.Fences.Load(), h.dev.Stats.Flushes.Load()
		if err := h.c.Release(app, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		if f, l := h.dev.Stats.Fences.Load()-fences, h.dev.Stats.Flushes.Load()-flushes; f != 1 || l != want {
			t.Fatalf("record zeroed by the LibFS=%v: the removal issued %d fences and %d flushes, want 1 and %d", zeroed, f, l, want)
		}
		if _, ok, _ := layout.ReadInode(h.dev, h.g, ino); ok {
			t.Fatalf("record zeroed by the LibFS=%v: the freed inode's record is live", zeroed)
		}
	}
}

// TestCrossingQueueAllocatesNothing: the persist queues are recycled, so a
// crossing's writes cost no allocation.
func TestCrossingQueueAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pins do not hold under -race")
	}
	h := newHarness(t, verifier.Enhanced)
	allocs := testing.AllocsPerRun(100, func() {
		q := h.c.crossing(false)
		q.Flush(layout.ShadowOff(h.g, layout.RootIno), layout.InodeSize)
		h.c.commit(q)
	})
	if allocs != 0 {
		t.Fatalf("a crossing's queue allocates %v objects, want 0", allocs)
	}
}

// TestCrossingFreesAfterFence: an inode a crossing frees, and its pages,
// are reissuable only once the records that free them are durable — at the
// crossing's fence neither is back, after it both are.
func TestCrossingFreesAfterFence(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino, _, _ := h.mkdatafile(app, layout.RootIno, "f")
	for _, i := range []uint64{layout.RootIno, ino} {
		if err := h.c.Commit(app, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Release(app, ino); err != nil {
		t.Fatal(err)
	}
	h.unlink(layout.RootIno, "f")
	layout.FreeInode(h.dev, h.g, ino)
	h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)

	inoBack := func() bool {
		h.c.appsMu.Lock()
		defer h.c.appsMu.Unlock()
		return slices.Contains(h.c.inoFree, ino)
	}
	free, fences := h.c.FreeCount(), 0
	h.dev.EnableTracking()
	h.dev.SetFenceObserver(func() {
		fences++
		if got := h.c.FreeCount() - free; got != 0 {
			t.Errorf("%d freed pages back in the allocator before the fence", got)
		}
		if inoBack() {
			t.Error("the freed inode number is back in the free list before the fence")
		}
	})
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	h.dev.SetFenceObserver(nil)
	if fences != 1 {
		t.Fatalf("the removal issued %d fences, want 1", fences)
	}
	if got := h.c.FreeCount() - free; got != 2 || !inoBack() {
		t.Fatalf("after the crossing: %d pages back (want the map page and the block), inode number back %v", got, inoBack())
	}
	if dirty := h.dev.DirtyLines(); len(dirty) != 0 {
		t.Fatalf("the crossing left %d lines it stored unpersisted, first at %#x", len(dirty), dirty[0])
	}
}

// TestCrossingKeepsItsEpochToTheFence: a batch that reaches a directory
// holds the epoch until the directory's records are fenced — exclusive
// while directories run, shared once files follow — so no exclusive
// crossing can read the change before it is durable, while another app's
// file crossing runs beside the batch. A directory after the files retakes
// the exclusive epoch, after a fence: [dir, file, dir] costs two.
func TestCrossingKeepsItsEpochToTheFence(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	a, b := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
	h.c.Acquire(a, layout.RootIno, true)
	d1, d2 := h.mkdir(a, layout.RootIno, "d1"), h.mkdir(a, layout.RootIno, "d2")
	f, g := h.mkfile(a, layout.RootIno, "f"), h.mkfile(a, layout.RootIno, "g")
	for _, ino := range []uint64{layout.RootIno, d1, d2, f, g} {
		if err := h.c.Commit(a, ino); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Release(a, g); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Acquire(b, g, true); err != nil {
		t.Fatal(err)
	}

	var fences int
	var inside sync.Mutex // held while a fence of a's batch is checked
	h.dev.EnableTracking()
	h.dev.SetFenceObserver(func() {
		if !inside.TryLock() {
			return // b's commit fencing from inside the check
		}
		defer inside.Unlock()
		fences++
		if h.c.epoch.TryLock() {
			h.c.epoch.Unlock()
			t.Errorf("fence %d: an exclusive crossing could enter before the directory's records are durable", fences)
		}
		if fences > 1 {
			return // a's batch holds the exclusive epoch again for d2
		}
		done := make(chan error)
		go func() { done <- h.c.Commit(b, g) }()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("another app's file commit waited on the batch's files")
		}
	})
	excl := h.c.Stats.EpochExclusive.Load()
	for _, r := range h.c.ReleaseBatch(a, []uint64{d1, f, d2}, false, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	h.dev.SetFenceObserver(nil)
	if got := h.c.Stats.EpochExclusive.Load() - excl; fences != 2 || got != 2 {
		t.Fatalf("[dir, file, dir] batch: %d fences and %d exclusive epochs, want 2 and 2", fences, got)
	}
}

// TestCrossingQueuesRace: two applications' crossings — one's leased
// ReleaseBatch of a directory and its files (the epoch held to the commit,
// downgraded to shared for the files), the other's file Commits (shard
// locks) — run concurrently on the recycled queues. Each crossing persists exactly what it wrote: when they
// are done no line of the device is dirty, and every shadow record on it
// holds the last verified modification time.
func TestCrossingQueuesRace(t *testing.T) {
	h := newSizedHarness(t, verifier.Enhanced, 1024, 256)
	a, b := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
	h.c.Acquire(a, layout.RootIno, true)
	dir := h.mkdir(a, layout.RootIno, "d")
	var mine, theirs []uint64
	for _, n := range []string{"b0", "b1", "b2", "b3"} {
		theirs = append(theirs, h.mkfile(a, layout.RootIno, n))
	}
	h.c.Commit(a, layout.RootIno)
	h.c.Commit(a, dir)
	for _, n := range []string{"a0", "a1", "a2", "a3"} {
		mine = append(mine, h.mkfile(a, dir, n))
	}
	h.c.Commit(a, dir)
	all := append(append([]uint64{layout.RootIno, dir}, mine...), theirs...)
	for _, ino := range all[2:] {
		if err := h.c.Commit(a, ino); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range h.c.ReleaseBatch(a, all, false, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	acquire := func(app AppID, inos []uint64) {
		for _, ino := range inos {
			if _, err := h.c.Acquire(app, ino, true); err != nil {
				t.Error(err)
			}
		}
	}
	touch := func(ino uint64) {
		in, _, _ := layout.ReadInode(h.dev, h.g, ino)
		in.MTime++
		layout.WriteInode(h.dev, h.g, ino, &in)
		h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
	}
	held := append([]uint64{dir}, mine...)
	acquire(a, held)
	acquire(b, theirs)

	h.dev.EnableTracking()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, ino := range mine {
				touch(ino)
			}
			for _, r := range h.c.ReleaseBatch(a, held, true, nil) {
				if r.Err != nil {
					t.Error(r.Err)
				}
			}
			acquire(a, held)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, ino := range theirs {
				touch(ino)
				if err := h.c.Commit(b, ino); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	if dirty := h.dev.DirtyLines(); len(dirty) != 0 {
		t.Fatalf("%d lines left dirty by the crossings, first at %#x", len(dirty), dirty[0])
	}
	for _, ino := range append(mine, theirs...) {
		sh, _, _, _ := layout.ReadShadow(h.dev, h.g, ino)
		in, _, _ := layout.ReadInode(h.dev, h.g, ino)
		if sh.MTime != in.MTime || in.MTime != 100 {
			t.Fatalf("inode %d: shadow mtime %d, record mtime %d, want both 100", ino, sh.MTime, in.MTime)
		}
	}
}
