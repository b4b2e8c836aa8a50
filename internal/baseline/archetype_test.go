package baseline_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"arckfs/internal/baseline"
	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
)

// The three baselines are architectural archetypes; these tests pin the
// properties that make them meaningful comparison points.

// TestPmfsGlobalJournalSerializes: PMFS-like metadata operations
// serialize on one journal even in disjoint directories, unlike the
// NOVA-like per-inode design. We assert the behavioural contract (both
// complete correctly under heavy cross-directory churn) and that the
// journal never corrupts counts.
func TestPmfsGlobalJournalSerializes(t *testing.T) {
	fs := mustNew(t, "pmfs", 64<<20, nil)
	setup := fs.NewThread(0)
	for d := 0; d < 4; d++ {
		if err := setup.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fs.NewThread(g)
			for i := 0; i < 200; i++ {
				if err := w.Create(fmt.Sprintf("/d%d/f%d", g, i)); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
	for d := 0; d < 4; d++ {
		names, err := setup.Readdir(fmt.Sprintf("/d%d", d))
		if err != nil || len(names) != 200 {
			t.Fatalf("/d%d has %d entries, %v", d, len(names), err)
		}
	}
}

// TestNovaCOWPreservesOldDataOnPartialWrite: NOVA's copy-on-write must
// carry the untouched part of a page into the new block.
func TestNovaCOWPreservesOldDataOnPartialWrite(t *testing.T) {
	fs := mustNew(t, "nova", 32<<20, nil)
	w := fs.NewThread(0)
	w.Create("/f")
	fd, _ := w.Open("/f")
	base := make([]byte, 8192)
	for i := range base {
		base[i] = 0x11
	}
	w.WriteAt(fd, base, 0)
	// Partial overwrite in the middle of page 0.
	w.WriteAt(fd, []byte{0x22, 0x22}, 100)
	got := make([]byte, 8192)
	w.ReadAt(fd, got, 0)
	if got[99] != 0x11 || got[100] != 0x22 || got[101] != 0x22 || got[102] != 0x11 {
		t.Fatalf("COW tore the page: %v", got[98:104])
	}
	if got[8000] != 0x11 {
		t.Fatal("page 1 lost")
	}
}

// TestKucofsDataPathAvoidsSyscalls: reads and writes to allocated blocks
// run without kernel crossings, while metadata operations pay them —
// the KucoFS split. Measured through the cost model (a syscall charge is
// ~1 ms here, so the difference is unmistakable).
func TestKucofsDataPathAvoidsSyscalls(t *testing.T) {
	cost := &costmodel.Model{SyscallNS: 1_000_000} // 1 ms per crossing
	fs := mustNew(t, "kucofs", 32<<20, cost)
	w := fs.NewThread(0)
	start := time.Now()
	if err := w.Create("/f"); err != nil { // 1 metadata op => ≥1 ms
		t.Fatal(err)
	}
	createTime := time.Since(start)
	if createTime < 500*time.Microsecond {
		t.Fatalf("create did not pay the trusted-thread crossing: %v", createTime)
	}
	fd, _ := w.Open("/f")
	buf := make([]byte, 1024)
	if _, err := w.WriteAt(fd, buf, 0); err != nil { // first write allocates: 1 syscall
		t.Fatal(err)
	}
	start = time.Now()
	for i := 0; i < 50; i++ { // steady-state data ops: no syscalls
		if _, err := w.WriteAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := w.ReadAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	dataTime := time.Since(start)
	if dataTime > createTime {
		t.Fatalf("100 data ops (%v) cost more than one metadata op (%v): data path is not direct", dataTime, createTime)
	}
}

// eachArchetype runs f as one subtest per archetype, for the properties
// the shared skeleton gives all of them.
func eachArchetype(t *testing.T, f func(t *testing.T, name string)) {
	for _, name := range baseline.Names() {
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

// TestRenameLockOrdering: cross-directory renames in both directions
// concurrently must not deadlock (ordered inode locking), whatever lock
// the discipline's commit takes inside them.
func TestRenameLockOrdering(t *testing.T) {
	eachArchetype(t, func(t *testing.T, name string) {
		fs := mustNew(t, name, 32<<20, nil)
		w := fs.NewThread(0)
		w.Mkdir("/a")
		w.Mkdir("/b")
		w.Create("/a/x")
		w.Create("/b/y")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			t1 := fs.NewThread(1)
			for i := 0; i < 100; i++ {
				t1.Rename("/a/x", "/b/x")
				t1.Rename("/b/x", "/a/x")
			}
		}()
		go func() {
			defer wg.Done()
			t2 := fs.NewThread(2)
			for i := 0; i < 100; i++ {
				t2.Rename("/b/y", "/a/y")
				t2.Rename("/a/y", "/b/y")
			}
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("cross-directory renames deadlocked")
		}
		for _, p := range []string{"/a/x", "/b/y"} {
			if _, err := w.Stat(p); err != nil {
				t.Fatalf("%s after the renames: %v", p, err)
			}
		}
	})
}

// TestShrinkZeroesTheCutTail: a shrink into the middle of a block must
// not leave the cut-off bytes where a later grow, or a write past the
// gap, exposes them again.
func TestShrinkZeroesTheCutTail(t *testing.T) {
	eachArchetype(t, func(t *testing.T, name string) {
		for _, regrow := range []struct {
			name string
			do   func(w fsapi.Thread, fd fsapi.FD) error
		}{
			{"grow", func(w fsapi.Thread, _ fsapi.FD) error { return w.Truncate("/f", 4096) }},
			{"write-past-gap", func(w fsapi.Thread, fd fsapi.FD) error {
				_, err := w.WriteAt(fd, []byte{0x22}, 4095)
				return err
			}},
		} {
			t.Run(regrow.name, func(t *testing.T) {
				w := mustNew(t, name, 32<<20, nil).NewThread(0)
				if err := w.Create("/f"); err != nil {
					t.Fatal(err)
				}
				fd, err := w.Open("/f")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.WriteAt(fd, bytes.Repeat([]byte{0x11}, 8192), 0); err != nil {
					t.Fatal(err)
				}
				if err := w.Truncate("/f", 100); err != nil {
					t.Fatal(err)
				}
				if err := regrow.do(w, fd); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 4095)
				if n, err := w.ReadAt(fd, got, 0); err != nil || n != len(got) {
					t.Fatalf("ReadAt = %d, %v", n, err)
				}
				if !bytes.Equal(got[:100], bytes.Repeat([]byte{0x11}, 100)) {
					t.Fatal("the kept head changed")
				}
				if stale := len(got[100:]) - bytes.Count(got[100:], []byte{0}); stale != 0 {
					t.Fatalf("%d stale bytes read back past the shrink", stale)
				}
			})
		}
	})
}
