package libfs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// newGrantFS formats a fresh controller and attaches a LibFS with default
// options.
func newGrantFS(t *testing.T) *FS {
	t.Helper()
	ctrl, err := kernel.Format(pmem.New(64<<20, nil), kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return New(ctrl, ctrl.RegisterApp(0, 0), Options{})
}

// checkNoLeaseCounts fails if a page refill moved a lease counter: a
// stripe refill is a grant crossing or nothing, never a lease hit or miss.
func checkNoLeaseCounts(t *testing.T, fs *FS) {
	t.Helper()
	if h, m, a := fs.Stats.LeaseHits.Load(), fs.Stats.LeaseMisses.Load(), fs.Stats.SyscallsAvoided.Load(); h+m+a != 0 {
		t.Errorf("page refills counted %d lease hits, %d misses, %d syscalls avoided; want none", h, m, a)
	}
}

// allocN takes n pages from stripe cpu, failing the test on the first
// error, and records each in seen (which must not hold it yet).
func allocN(t *testing.T, fs *FS, w *Thread, cpu, n int, seen map[uint64]bool) {
	t.Helper()
	for i := range n {
		p, err := fs.allocPage(w, cpu)
		if err != nil {
			t.Fatalf("page %d of %d: %v", i+1, n, err)
		}
		if seen[p] {
			t.Fatalf("page %d handed out twice", p)
		}
		seen[p] = true
	}
}

// TestPageGrantsCrossOncePerDoubleBatch pins the page-grant path: a dry
// stripe asks the kernel for 2n pages (n = GrantPageBatch) in one
// crossing and pools all of them, falling back to n when 2n is refused.
func TestPageGrantsCrossOncePerDoubleBatch(t *testing.T) {
	t.Run("one crossing per 2n pages", func(t *testing.T) {
		fs := newGrantFS(t)
		w, n := th(t, fs), fs.opts.GrantPageBatch
		seen := make(map[uint64]bool)
		start := kctl(fs).Stats.Syscalls.Load()
		for k := int64(1); k <= 3; k++ {
			allocN(t, fs, w, 0, 2*n, seen)
			if got := kctl(fs).Stats.Syscalls.Load() - start; got != k {
				t.Fatalf("%d pages cost %d crossings, want %d", k*int64(2*n), got, k)
			}
		}
		checkNoLeaseCounts(t, fs)
	})

	t.Run("quota between n and 2n", func(t *testing.T) {
		fs := newGrantFS(t)
		w, n := th(t, fs), fs.opts.GrantPageBatch
		if err := kctl(fs).SetQuota(fs.app, kernel.Quota{MaxPages: int64(n * 3 / 2)}); err != nil {
			t.Fatal(err)
		}
		start := kctl(fs).Stats.Syscalls.Load()
		allocN(t, fs, w, 0, n, make(map[uint64]bool))
		if got := kctl(fs).Stats.Syscalls.Load() - start; got != 2 {
			t.Fatalf("first refill under the quota cost %d crossings, want 2 (refused 2n, granted n)", got)
		}
		if _, err := fs.allocPage(w, 0); !errors.Is(err, kernel.ErrQuota) {
			t.Fatalf("refill past the quota: %v, want ErrQuota", err)
		}
		checkNoLeaseCounts(t, fs)
	})

	t.Run("two goroutines on one stripe", func(t *testing.T) {
		fs := newGrantFS(t)
		n := fs.opts.GrantPageBatch
		var (
			wg   sync.WaitGroup
			got  [2]map[uint64]bool
			errs [2]error
		)
		for g := range got {
			got[g] = make(map[uint64]bool)
			w := th(t, fs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3*n + 7 {
					p, err := fs.allocPage(w, 0)
					if err != nil {
						errs[g] = err
						return
					}
					got[g][p] = true
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		handed := len(got[0]) + len(got[1])
		for p := range got[0] {
			if got[1][p] {
				t.Fatalf("page %d handed out to both goroutines", p)
			}
		}
		if handed != 2*(3*n+7) {
			t.Fatalf("%d distinct pages for %d allocations: one was handed out twice", handed, 2*(3*n+7))
		}
		checkNoLeaseCounts(t, fs)

		pooled := fs.pagePool[0]
		for _, p := range pooled {
			if got[0][p] || got[1][p] {
				t.Fatalf("page %d is both handed out and pooled", p)
			}
		}
		granted := pagesOut(t, fs)
		if int(granted) != handed+len(pooled) {
			t.Fatalf("%d pages granted, want %d handed out + %d pooled", granted, handed, len(pooled))
		}
		free := kctl(fs).FreeCount()
		fs.ReturnGrants()
		if back := kctl(fs).FreeCount() - free; back != len(pooled) {
			t.Fatalf("ReturnGrants handed back %d pages, want the %d pooled", back, len(pooled))
		}
		if out := pagesOut(t, fs); int(out) != handed {
			t.Fatalf("%d pages still granted after ReturnGrants, want the %d handed out", out, handed)
		}
	})
}

// pagesOut is fs's app's outstanding page-grant count.
func pagesOut(t *testing.T, fs *FS) int64 {
	t.Helper()
	u, err := usageOf(fs)
	if err != nil {
		t.Fatal(err)
	}
	return u.PagesOut
}

// TestTruncatedPagesComeBackAfterOneGracePeriod appends n pages to a file
// and truncates it to nothing, cycles times over, with n the domain's
// bound on deferred pages: each truncate retires one object holding n
// pages, which must start a grace period by its weight alone, so the next
// cycle's appends take the same pages back from the pool instead of
// drawing n fresh ones from the kernel. The test only waits for the
// background grace period (no Synchronize, no Barrier), and the device is
// large enough that no grant fails, which would drain the queue itself.
func TestTruncatedPagesComeBackAfterOneGracePeriod(t *testing.T) {
	const n, cycles = 4096, 4
	ctrl, err := kernel.Format(pmem.New(96<<20, nil), kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w := th(t, fs)
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 16*layout.PageSize)
	deadline := time.Now().Add(5 * time.Second)
	for c := range cycles {
		for off := 0; off < n*layout.PageSize; off += len(chunk) {
			if _, err := w.WriteAt(fd, chunk, int64(off)); err != nil {
				t.Fatalf("cycle %d: append at %d: %v", c, off, err)
			}
		}
		if err := w.Truncate("/f", 0); err != nil {
			t.Fatal(err)
		}
		for fs.dom.Pending() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if free := ctrl.FreeCount(); free < 2*fs.opts.GrantPageBatch {
		t.Fatalf("%d pages left free: a grant may have failed and drained the queue", free)
	}
	limit := 2*n + 4*fs.opts.GrantPageBatch
	got := pagesOut(t, fs)
	t.Logf("%d cycles of %d pages drew %d pages", cycles, n, got)
	if got > int64(limit) {
		t.Fatalf("%d cycles of %d pages drew %d pages from the kernel, want at most %d (%d still retired)",
			cycles, n, got, limit, fs.dom.Pending())
	}
}
