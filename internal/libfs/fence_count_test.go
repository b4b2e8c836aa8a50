package libfs

import (
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
		dev.SetFenceObserver(func() {
			for _, s := range dev.DirtyLineStates() {
				if s.Off >= lo && s.Off < hi {
					seen[s.Off] = true
				}
			}
		})
		defer dev.SetFenceObserver(nil)
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
			fs.ctrl.Stats.Syscalls.Load()}
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
