package libfs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

func TestCreateBatchBasic(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	if err := w.Mkdir("/bulk"); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("item%03d", i)
	}
	n, err := w.CreateBatch("/bulk", names)
	if err != nil || n != 50 {
		t.Fatalf("CreateBatch = %d, %v", n, err)
	}
	got, err := w.Readdir("/bulk")
	if err != nil || len(got) != 50 {
		t.Fatalf("Readdir = %d, %v", len(got), err)
	}
	// The batch result is ordinary verifiable state.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll after batch: %v", err)
	}
	// And the files behave like any others.
	fd, err := w.Open("/bulk/item007")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(fd, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestCreateBatchDuplicateStopsCleanly(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	w.Mkdir("/bulk")
	w.Create("/bulk/taken")
	n, err := w.CreateBatch("/bulk", []string{"a", "b", "taken", "c"})
	if !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("err = %v", err)
	}
	if n != 2 {
		t.Fatalf("created %d before the clash, want 2", n)
	}
	if _, err := w.Stat("/bulk/a"); err != nil {
		t.Fatal("prefix of batch lost")
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
}

// TestCreateBatchAllOrNothing: a batch that fails leaves each of its names
// whole or absent. An invalid name fails it before anything is written; an
// inode grant that fails partway commits the files before it, which then
// behave like any others, and leaves the rest uncreated.
func TestCreateBatchAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		names []string
		quota bool // cap the app's inode grants at what it holds, until the checks
		want  error
	}{
		{"invalid name", []string{"a", "b/c"}, false, fsapi.ErrInval},
		{"inode quota", []string{"a", "b", "c", "d", "e", "f"}, true, kernel.ErrQuota},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{InodeCap: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{GrantInoBatch: 4})
			w := th(t, fs)
			if err := w.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			if tc.quota {
				if err := capAtUsage(fs, false, true); err != nil {
					t.Fatal(err)
				}
			}
			n, err := w.CreateBatch("/d", tc.names)
			if !errors.Is(err, tc.want) {
				t.Fatalf("CreateBatch = %d, %v; want %v", n, err, tc.want)
			}
			if tc.quota && (n == 0 || n == len(tc.names)) {
				t.Fatalf("CreateBatch created %d of %d before the grant failed; want some, not all", n, len(tc.names))
			}
			if !tc.quota && n != 0 {
				t.Fatalf("CreateBatch created %d files, want 0", n)
			}
			if got, err := w.Readdir("/d"); err != nil || !slices.Equal(got, tc.names[:n]) {
				t.Fatalf("Readdir = %v, %v; want %v", got, err, tc.names[:n])
			}
			if err := ctrl.SetQuota(fs.app, kernel.Quota{}); err != nil {
				t.Fatal(err)
			}
			for i, name := range tc.names {
				path := "/d/" + name
				if !layout.ValidName(name) {
					continue
				}
				_, statErr := w.Stat(path)
				createErr := w.Create(path)
				if i < n && (statErr != nil || !errors.Is(createErr, fsapi.ErrExist)) {
					t.Errorf("%s, created: Stat %v, Create %v; want nil, ErrExist", path, statErr, createErr)
				}
				if i >= n && (!errors.Is(statErr, fsapi.ErrNotExist) || createErr != nil) {
					t.Errorf("%s, not created: Stat %v, Create %v; want ErrNotExist, nil", path, statErr, createErr)
				}
			}
			if err := fs.ReleaseAll(); err != nil {
				t.Fatalf("ReleaseAll: %v", err)
			}
		})
	}
}

// TestCreateBatchFenceAmortization verifies the customization's point:
// the batch issues ~2 fences while N singles issue ~2N.
func TestCreateBatchFenceAmortization(t *testing.T) {
	const n = 64
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
	}

	countFences := func(batch bool) int64 {
		dev := pmem.New(64<<20, nil)
		ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		w := fs.NewThread(0).(*Thread)
		if err := w.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		before := dev.Stats.Fences.Load()
		if batch {
			if _, err := w.CreateBatch("/d", names); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, name := range names {
				if err := w.Create("/d/" + name); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dev.Stats.Fences.Load() - before
	}

	single := countFences(false)
	batched := countFences(true)
	if single < 2*n {
		t.Fatalf("singles fenced %d times, expected >= %d", single, 2*n)
	}
	if batched > single/8 {
		t.Fatalf("batch fenced %d times vs %d for singles: no amortization", batched, single)
	}
}

// TestCreateBatchCrashEntriesAtomic: any crash during the batch leaves
// each entry either fully present or absent — never torn.
func TestCreateBatchCrashEntriesAtomic(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w := fs.NewThread(0).(*Thread)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	dev.EnableTracking()
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("batch-entry-with-longish-name-%02d", i)
	}
	if _, err := w.CreateBatch("/d", names); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		img := dev.CrashImage(pmem.CrashRandom(seed))
		rdev := pmem.Restore(img, nil)
		if _, rep, err := kernel.Mount(rdev, kernel.Options{}, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		} else if rep.CorruptDentries != 0 {
			t.Fatalf("seed %d: torn batch entry: %s", seed, rep)
		}
	}
}
