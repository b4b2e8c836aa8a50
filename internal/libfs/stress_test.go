package libfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"arckfs/internal/layout"
)

// TestLockFreeReadersVsDirectoryWriters is the data-plane stress test the
// RCU read paths are gated on: reader threads open, stat, and read a set
// of stable files while writer threads create, rename, and unlink other
// names in the same directory — so every lookup races bucket mutations on
// the chains it traverses. The stable files' contents are never written
// during the run, making every read byte-deterministic (concurrent
// same-region writes are allowed to return unspecified bytes, so the
// stress keeps them out of scope). Run it under -race.
func TestLockFreeReadersVsDirectoryWriters(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		fs := newFS(t, BugsNone, nil)
		setup := th(t, fs)
		if err := setup.Mkdir("/shared"); err != nil {
			t.Fatal(err)
		}
		const stable = 8
		want := make([][]byte, stable)
		for i := 0; i < stable; i++ {
			p := fmt.Sprintf("/shared/stable%d", i)
			if err := setup.Create(p); err != nil {
				t.Fatal(err)
			}
			fd, err := setup.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = []byte(fmt.Sprintf("payload-%d-0123456789", i))
			if _, err := setup.WriteAt(fd, want[i], 0); err != nil {
				t.Fatal(err)
			}
			if err := setup.Close(fd); err != nil {
				t.Fatal(err)
			}
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rt := fs.NewThread(tid).(*Thread)
				rng := rand.New(rand.NewSource(int64(tid)*131 + 17))
				buf := make([]byte, 64)
				for !stop.Load() {
					k := rng.Intn(stable)
					p := fmt.Sprintf("/shared/stable%d", k)
					if _, err := rt.Stat(p); err != nil {
						errs <- fmt.Errorf("stat %s: %w", p, err)
						return
					}
					fd, err := rt.Open(p)
					if err != nil {
						errs <- fmt.Errorf("open %s: %w", p, err)
						return
					}
					n, err := rt.ReadAt(fd, buf, 0)
					if err != nil {
						errs <- fmt.Errorf("read %s: %w", p, err)
						return
					}
					if n != len(want[k]) || string(buf[:n]) != string(want[k]) {
						errs <- fmt.Errorf("read %s: got %q, want %q", p, buf[:n], want[k])
						return
					}
					if err := rt.Close(fd); err != nil {
						errs <- err
						return
					}
				}
			}(1 + r)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wt := fs.NewThread(10 + w).(*Thread)
				for i := 0; i < 400; i++ {
					a := fmt.Sprintf("/shared/w%d-a%d", w, i%32)
					b := fmt.Sprintf("/shared/w%d-b%d", w, i%32)
					if err := wt.Create(a); err != nil {
						errs <- fmt.Errorf("create %s: %w", a, err)
						return
					}
					if err := wt.Rename(a, b); err != nil {
						errs <- fmt.Errorf("rename %s: %w", a, err)
						return
					}
					if err := wt.Unlink(b); err != nil {
						errs <- fmt.Errorf("unlink %s: %w", b, err)
						return
					}
				}
				stop.Store(true)
			}(w)
		}
		wg.Wait()
		stop.Store(true)
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// Drain deferred bucket-entry reclamation before the device goes
		// away with the test.
		fs.Domain().Barrier()
	})
}

// TestReadAtVsTruncateReclaim races lock-free ReadAt against the page
// reclamation paths: a truncator loops shrink-to-zero/refill on shared
// files while a churn thread creates, dirties, and unlinks its own files
// so recycled pages are promptly reallocated (the pool is LIFO) and
// stamped with a foreign pattern. A reader that loaded a block pointer
// before the shrink must still find the original payload — if Truncate
// or destroyFile recycled pages without waiting out the reader's RCU
// section, the reader observes the churn thread's 0xAB bytes (and -race
// flags the write/read overlap on the device array). Refills take a
// test-level lock against readers so the only concurrent writer a read
// can overlap is Truncate itself, keeping legitimately-unspecified
// overlapping writes out of scope.
func TestReadAtVsTruncateReclaim(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		// The FileReadBlock hook yields between a reader's block-pointer
		// load and the page copy — the reclamation window — so the
		// truncator and churn threads get scheduled while a loaded
		// pointer is still live (the deterministic stand-in for the
		// paper's sleep() instrumentation).
		fs := newFS(t, BugsNone, &Hooks{FileReadBlock: runtime.Gosched})
		setup := th(t, fs)
		if err := setup.Mkdir("/shared"); err != nil {
			t.Fatal(err)
		}
		if err := setup.Mkdir("/churn"); err != nil {
			t.Fatal(err)
		}
		const (
			nfiles   = 4
			fileSize = 8 * layout.PageSize // several pages per file
		)
		fill := func(k int) byte { return byte('A' + k) }
		writeFile := func(th *Thread, path string, b byte, n int) error {
			fd, err := th.Open(path)
			if err != nil {
				return err
			}
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = b
			}
			if _, err := th.WriteAt(fd, buf, 0); err != nil {
				return err
			}
			return th.Close(fd)
		}
		for k := 0; k < nfiles; k++ {
			p := fmt.Sprintf("/shared/f%d", k)
			if err := setup.Create(p); err != nil {
				t.Fatal(err)
			}
			if err := writeFile(setup, p, fill(k), fileSize); err != nil {
				t.Fatal(err)
			}
		}

		// refillMu[k] excludes readers only during the refill WriteAt;
		// Truncate deliberately takes no test lock so it races reads.
		var refillMu [nfiles]sync.RWMutex
		var stop atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 16)

		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rt := fs.NewThread(tid).(*Thread)
				rng := rand.New(rand.NewSource(int64(tid)*257 + 5))
				buf := make([]byte, fileSize)
				for !stop.Load() {
					k := rng.Intn(nfiles)
					p := fmt.Sprintf("/shared/f%d", k)
					refillMu[k].RLock()
					fd, err := rt.Open(p)
					if err != nil {
						refillMu[k].RUnlock()
						errs <- fmt.Errorf("open %s: %w", p, err)
						return
					}
					n, err := rt.ReadAt(fd, buf, 0)
					if err != nil {
						refillMu[k].RUnlock()
						errs <- fmt.Errorf("read %s: %w", p, err)
						return
					}
					for i := 0; i < n; i++ {
						// A byte is the payload, or zero when the read
						// overlapped a shrink; anything else is another
						// file's data bleeding through recycled pages.
						if buf[i] != fill(k) && buf[i] != 0 {
							refillMu[k].RUnlock()
							errs <- fmt.Errorf("read %s off %d: got %#x, want %#x or 0",
								p, i, buf[i], fill(k))
							return
						}
					}
					if err := rt.Close(fd); err != nil {
						refillMu[k].RUnlock()
						errs <- err
						return
					}
					refillMu[k].RUnlock()
				}
			}(1 + r)
		}

		// Truncator: shrink-to-zero races the readers; the refill that
		// restores the payload is excluded by the test lock. Between
		// the two, a scratch file is created and dirtied on the same
		// thread — the allocator pool is a per-stripe LIFO, so the
		// scratch allocation pops exactly the pages the shrink just
		// freed and stamps them 0xAB while a reader may still hold
		// their pointers. With grace-period retirement the pages are
		// not in the pool yet and the scratch gets clean ones.
		wg.Add(1)
		go func() {
			defer wg.Done()
			wt := fs.NewThread(10).(*Thread)
			for i := 0; i < 100; i++ {
				k := i % nfiles
				p := fmt.Sprintf("/shared/f%d", k)
				if err := wt.Truncate(p, 0); err != nil {
					errs <- fmt.Errorf("truncate %s: %w", p, err)
					break
				}
				scratch := "/churn/scratch"
				if err := wt.Create(scratch); err != nil {
					errs <- fmt.Errorf("create %s: %w", scratch, err)
					break
				}
				if err := writeFile(wt, scratch, 0xAB, fileSize); err != nil {
					errs <- fmt.Errorf("write %s: %w", scratch, err)
					break
				}
				if err := wt.Unlink(scratch); err != nil {
					errs <- fmt.Errorf("unlink %s: %w", scratch, err)
					break
				}
				refillMu[k].Lock()
				err := writeFile(wt, p, fill(k), fileSize)
				refillMu[k].Unlock()
				if err != nil {
					errs <- fmt.Errorf("refill %s: %w", p, err)
					break
				}
			}
			stop.Store(true)
		}()

		// Churn: create/dirty/unlink private files so freed pages are
		// reallocated quickly and overwritten with a detectable pattern.
		// The churn thread shares the truncator's allocator stripe
		// (cpu%8) — pages the shrink frees land in that stripe's LIFO
		// pool, so the very next churn allocation reuses them.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct := fs.NewThread(18).(*Thread)
			for i := 0; !stop.Load(); i++ {
				p := fmt.Sprintf("/churn/c%d", i%64)
				if err := ct.Create(p); err != nil {
					errs <- fmt.Errorf("churn create %s: %w", p, err)
					return
				}
				if err := writeFile(ct, p, 0xAB, 2*layout.PageSize); err != nil {
					errs <- fmt.Errorf("churn write %s: %w", p, err)
					return
				}
				if err := ct.Unlink(p); err != nil {
					errs <- fmt.Errorf("churn unlink %s: %w", p, err)
					return
				}
			}
		}()

		wg.Wait()
		stop.Store(true)
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		fs.Domain().Barrier()
	})
}
