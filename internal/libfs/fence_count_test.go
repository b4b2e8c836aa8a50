package libfs

import (
	"bytes"
	"errors"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/pmem"
)

// TestCreateFenceCountPatchedVsBuggy pins the §4.2 patch down at the
// counter level: the patched create path issues exactly one more
// persist barrier than the buggy path — the fence between persisting
// the dentry body and writing its commit marker. More would mean the
// patch over-fences (a real throughput cost, Figure 3); fewer would
// mean the fence regressed away.
//
// The absolute counts are pinned too: a steady-state create is exactly two
// fences patched (body epoch + marker epoch) and one buggy (single
// combined epoch).
func TestCreateFenceCountPatchedVsBuggy(t *testing.T) {
	fencesPerCreate := func(bugs Bugs) int64 {
		dev := pmem.New(64<<20, nil)
		ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Bugs: bugs})
		w := fs.NewThread(0).(*Thread)
		if err := w.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		// Warm up: the first create in the directory allocates and links
		// the log page; the second is the steady-state path every
		// create-heavy benchmark measures.
		if err := w.Create("/d/warmup"); err != nil {
			t.Fatal(err)
		}
		before := dev.Stats.Fences.Load()
		if err := w.Create("/d/f"); err != nil {
			t.Fatal(err)
		}
		return dev.Stats.Fences.Load() - before
	}

	// The write-combining batcher is the one persist schedule.
	t.Run("batched", func(t *testing.T) {
		buggy := fencesPerCreate(BugMissingFence)
		patched := fencesPerCreate(BugsNone)
		if patched != buggy+1 {
			t.Fatalf("patched create issued %d fences, buggy %d; want exactly one more",
				patched, buggy)
		}
		if buggy != 1 || patched != 2 {
			t.Fatalf("steady-state create fences = %d buggy / %d patched; want 1 / 2",
				buggy, patched)
		}
	})
}

// TestInodeRecordPersistsOneLine pins the one-line inode record on the two
// LibFS paths that persist one whole: a steady-state create stores exactly
// one inode-table line, its record, streamed (the only line it streams),
// and an unlink of a cached file stores and flushes exactly one, the freed
// record's type word, beside the line of its cleared commit marker.
func TestInodeRecordPersistsOneLine(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := w.Create("/d/warmup"); err != nil {
		t.Fatal(err)
	}
	dev, lo, hi := fs.dev, int64(fs.geo.TableStart*layoutPageSize), int64(fs.geo.ShadowStart*layoutPageSize)
	// run returns the inode-table lines op stored, as its fences see them
	// dirty, and the lines it streamed and flushed.
	run := func(op func() error) (lines int, streamed, flushed int64) {
		t.Helper()
		seen := map[int64]bool{}
		dev.EnableTracking()
		defer dev.DisableTracking()
		dev.SetObserver(pmem.OnFence(func() {
			for _, s := range dev.DirtyLineStates() {
				if s.Off >= lo && s.Off < hi {
					seen[s.Off] = true
				}
			}
		}))
		defer dev.SetObserver(nil)
		nt, fl := dev.Stats.NTStores.Load(), dev.Stats.Flushes.Load()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return len(seen), dev.Stats.NTStores.Load() - nt, dev.Stats.Flushes.Load() - fl
	}
	if lines, streamed, _ := run(func() error { return w.Create("/d/f") }); lines != 1 || streamed != 1 {
		t.Errorf("create stored %d inode-table lines and streamed %d lines, want 1 and 1", lines, streamed)
	}
	if lines, _, flushed := run(func() error { return w.Unlink("/d/f") }); lines != 1 || flushed != 1+1 {
		t.Fatalf("unlink stored %d inode-table lines and flushed %d lines, want 1 and 2 (marker + record)", lines, flushed)
	}
}

// TestTruncateFlushCountBatched pins the block-map flush coalescing: a
// 64-block truncate clears 64 adjacent 8-byte map entries — eight cache
// lines — so the batched path issues exactly 8 line write-backs and one
// fence; the inode record streams.
func TestTruncateFlushCountBatched(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	w := New(ctrl, ctrl.RegisterApp(0, 0), Options{}).NewThread(0).(*Thread)
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, layoutPageSize)
	for i := 0; i < 64; i++ {
		if _, err := w.WriteAt(fd, buf, int64(i)*layoutPageSize); err != nil {
			t.Fatal(err)
		}
	}
	beforeFl, beforeFe := dev.Stats.Flushes.Load(), dev.Stats.Fences.Load()
	if err := w.Truncate("/f", 0); err != nil {
		t.Fatal(err)
	}
	if flushes := dev.Stats.Flushes.Load() - beforeFl; flushes != 8 {
		t.Fatalf("batched 64-block truncate issued %d line flushes, want 8 (64 entries coalesced)", flushes)
	}
	if fences := dev.Stats.Fences.Load() - beforeFe; fences != 1 {
		t.Fatalf("batched truncate issued %d fences, want 1", fences)
	}
}

// growthRig is a file /f holding n bytes of 0xAB, open as fd.
func growthRig(t *testing.T, n int) (*FS, *Thread, fsapi.FD) {
	t.Helper()
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(fd, bytes.Repeat([]byte{0xAB}, n), 0); err != nil {
		t.Fatal(err)
	}
	return fs, w, fd
}

// persistDelta runs op and returns the lines it streamed and flushed and
// the fences it issued.
func persistDelta(t *testing.T, dev *pmem.Device, op func() error) (nt, flushes, fences int64) {
	t.Helper()
	s := &dev.Stats
	nt0, fl0, fe0 := s.NTStores.Load(), s.Flushes.Load(), s.Fences.Load()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return s.NTStores.Load() - nt0, s.Flushes.Load() - fl0, s.Fences.Load() - fe0
}

// TestFreshBlockAppendStreamsNoZeroes pins a WAL record landing in a fresh
// block: the block lies past the size and the write starts at its first
// byte, so nothing is zeroed. The only line streamed is the inode record;
// the 125 bytes are two stored and flushed lines, the new map entry one
// more; data, map entry and size are one fence each. Before the block was
// zero-streamed whole: 64 lines more.
func TestFreshBlockAppendStreamsNoZeroes(t *testing.T) {
	fs, w, fd := growthRig(t, layoutPageSize)
	nt, flushes, fences := persistDelta(t, fs.dev, func() error {
		_, err := w.WriteAt(fd, make([]byte, 125), layoutPageSize)
		return err
	})
	if nt != 1 || flushes != 2+1 || fences != 3 {
		t.Fatalf("125-byte append into a fresh block: %d NT lines, %d flushed, %d fences; want 1, 3, 3", nt, flushes, fences)
	}
}

// TestTruncateGrowFences pins what a growing truncate pays for the gap it
// exposes. From an aligned size the gap is all hole: the inode record
// alone, one fence, as before. From 100 the rest of block 0 is zeroed in
// an epoch of its own: the line [64, 128) stored and flushed, the 62 lines
// [128, 4096) streamed, and one fence more.
func TestTruncateGrowFences(t *testing.T) {
	for _, tc := range []struct {
		name                string
		from                int
		nt, flushes, fences int64
	}{
		{"aligned", layoutPageSize, 1, 0, 1},
		{"unaligned", 100, 62 + 1, 1, 2},
	} {
		fs, w, _ := growthRig(t, tc.from)
		nt, flushes, fences := persistDelta(t, fs.dev, func() error { return w.Truncate("/f", 2*layoutPageSize) })
		if nt != tc.nt || flushes != tc.flushes || fences != tc.fences {
			t.Errorf("%s: %d NT lines, %d flushed, %d fences; want %d, %d, %d",
				tc.name, nt, flushes, fences, tc.nt, tc.flushes, tc.fences)
		}
	}
}

// TestTruncateToOneTiB: the map chain for 1 TiB does not fit the device,
// so the truncate fails with ENOSPC, promptly, and leaves the size as it
// was — it used to publish the new size before finding that out. The gap
// walk toward 1 TiB visits only the file's one block: one store for the
// ragged line, one for the streamed rest.
func TestTruncateToOneTiB(t *testing.T) {
	fs, w, fd := growthRig(t, 100)
	if err := w.Truncate("/f", 1<<40); !errors.Is(err, fsapi.ErrNoSpace) {
		t.Fatalf("Truncate to 1 TiB: %v, want ErrNoSpace", err)
	}
	if st, err := w.Stat("/f"); err != nil || st.Size != 100 {
		t.Fatalf("Stat after the failed truncate: %+v, %v; want size 100", st, err)
	}
	if n, err := w.ReadAt(fd, make([]byte, 8), 100); n != 0 || err != nil {
		t.Fatalf("ReadAt past the old size after the failed truncate: %d, %v; want 0, nil", n, err)
	}
	mi, err := w.lookupFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	stores := fs.dev.Stats.Stores.Load()
	if !fs.zeroGap(w, mi.file.Load(), 100, 1<<40) {
		t.Fatal("zeroGap stored nothing over the tail of an allocated block")
	}
	w.pb.Barrier()
	if n := fs.dev.Stats.Stores.Load() - stores; n != 2 {
		t.Fatalf("zeroGap toward 1 TiB issued %d stores, want 2", n)
	}
}

// TestReadPathsPersistNothing pins what the lock-free read plane stands
// on: Stat, Open, ReadAt (inline and delegated), Readdir and a failed
// lookup of held inodes store, flush and fence nothing and never cross
// into the kernel — so no read can move the persist schedule the crash
// checkers enumerate.
func TestReadPathsPersistNothing(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	ok := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2*DelegationThreshold)
	ok(nil, w.Mkdir("/d"))
	ok(nil, w.Create("/d/f"))
	fd, err := w.Open("/d/f")
	ok(fd, err)
	ok(w.WriteAt(fd, buf, 0))
	counters := func() [5]int64 {
		d := &fs.dev.Stats
		return [5]int64{d.Flushes.Load(), d.Fences.Load(), d.NTStores.Load(), d.Stores.Load(),
			kctl(fs).Stats.Syscalls.Load()}
	}
	before := counters()
	ok(w.Stat("/d/f"))
	ok(w.Open("/d/f"))
	ok(w.ReadAt(fd, buf[:layoutPageSize], 0))
	ok(w.ReadAt(fd, buf, 0))
	ok(w.Readdir("/d"))
	if _, err := w.Stat("/d/absent"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("Stat of an absent name: %v, want ErrNotExist", err)
	}
	if after := counters(); after != before {
		t.Fatalf("read paths moved flushes/fences/ntstores/stores/syscalls by %v -> %v, want no change", before, after)
	}
}

const layoutPageSize = 4096
