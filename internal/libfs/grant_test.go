package libfs

import (
	"errors"
	"sync"
	"testing"

	"arckfs/internal/kernel"
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
		start := fs.ctrl.Stats.Syscalls.Load()
		for k := int64(1); k <= 3; k++ {
			allocN(t, fs, w, 0, 2*n, seen)
			if got := fs.ctrl.Stats.Syscalls.Load() - start; got != k {
				t.Fatalf("%d pages cost %d crossings, want %d", k*int64(2*n), got, k)
			}
		}
		checkNoLeaseCounts(t, fs)
	})

	t.Run("quota between n and 2n", func(t *testing.T) {
		fs := newGrantFS(t)
		w, n := th(t, fs), fs.opts.GrantPageBatch
		if err := fs.ctrl.SetQuota(fs.app, kernel.Quota{MaxPages: int64(n * 3 / 2)}); err != nil {
			t.Fatal(err)
		}
		start := fs.ctrl.Stats.Syscalls.Load()
		allocN(t, fs, w, 0, n, make(map[uint64]bool))
		if got := fs.ctrl.Stats.Syscalls.Load() - start; got != 2 {
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
		free := fs.ctrl.FreeCount()
		fs.ReturnGrants()
		if back := fs.ctrl.FreeCount() - free; back != len(pooled) {
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
