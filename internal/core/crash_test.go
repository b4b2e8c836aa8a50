package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

// TestRandomizedCrashRecovery drives a random workload on ArckFS+ with
// crash tracking enabled, materializes many random crash images, and
// requires every one of them to recover to a consistent state: recovery
// never errors, fsck after repair is clean, and every file that was
// created AND released before the crash still exists with intact data.
func TestRandomizedCrashRecovery(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sys, err := NewSystem(Config{DevSize: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			app := sys.NewApp(0, 0)
			w := app.NewThread(0).(*libfs.Thread)

			// Phase 1: durable prefix — created, written, and released
			// (verified): these must survive any crash.
			durable := map[string][]byte{}
			if err := w.Mkdir("/safe"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				p := fmt.Sprintf("/safe/f%d", i)
				if err := w.Create(p); err != nil {
					t.Fatal(err)
				}
				fd, _ := w.Open(p)
				blob := make([]byte, rng.Intn(8000)+1)
				rng.Read(blob)
				if _, err := w.WriteAt(fd, blob, 0); err != nil {
					t.Fatal(err)
				}
				w.Close(fd)
				durable[p] = blob
			}
			if err := app.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
			sys.Dev.EnableTracking()

			// Phase 2: in-flight noise — arbitrary unverified activity.
			for i := 0; i < 40; i++ {
				p := fmt.Sprintf("/noise%d", rng.Intn(12))
				switch rng.Intn(3) {
				case 0:
					w.Create(p)
				case 1:
					w.Unlink(p)
				case 2:
					if fd, err := w.Open(p); err == nil {
						blob := make([]byte, rng.Intn(4096)+1)
						w.WriteAt(fd, blob, int64(rng.Intn(4096)))
						w.Close(fd)
					}
				}
			}

			// Phase 3: many crash states from the same execution.
			for c := 0; c < 8; c++ {
				img := sys.Dev.CrashImage(pmem.CrashRandom(seed*100 + int64(c)))
				dev := pmem.Restore(img, nil)
				ctrl, rep, err := kernel.Mount(dev, kernel.Options{}, true)
				if err != nil {
					t.Fatalf("crash %d: recovery failed: %v", c, err)
				}
				_ = rep
				// A second pass must find nothing left to repair.
				rep2, err := kernel.Fsck(dev, kernel.Options{})
				if err != nil {
					t.Fatalf("crash %d: post-repair fsck: %v", c, err)
				}
				if !rep2.Clean() {
					t.Fatalf("crash %d: repair not idempotent: %s", c, rep2)
				}
				// Every durable file survives with its contents.
				app2 := ctrl.RegisterApp(0, 0)
				fs2 := libfs.New(ctrl, app2, libfs.Options{})
				r := fs2.NewThread(0).(*libfs.Thread)
				for p, blob := range durable {
					fd, err := r.Open(p)
					if err != nil {
						t.Fatalf("crash %d: durable file %s lost: %v", c, p, err)
					}
					got := make([]byte, len(blob))
					if n, err := r.ReadAt(fd, got, 0); err != nil || n != len(blob) {
						t.Fatalf("crash %d: durable read %s: n=%d err=%v", c, p, n, err)
					}
					for i := range blob {
						if got[i] != blob[i] {
							t.Fatalf("crash %d: durable data of %s corrupted at byte %d", c, p, i)
						}
					}
					r.Close(fd)
				}
			}
		})
	}
}

// TestCrashDuringVerifiedReleaseIsAtomic crashes after each ReleaseAll of
// a release-heavy workload returns, dropping every unfenced line: each
// released file survives, because a crossing's records are durable when it
// returns. It does not crash inside a release; the crossing's interior is
// enumerated record by record by TestCrossingAtomicByEnumeration.
func TestCrashDuringVerifiedReleaseIsAtomic(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	app := sys.NewApp(0, 0)
	w := app.NewThread(0).(*libfs.Thread)
	sys.Dev.EnableTracking()

	for round := 0; round < 5; round++ {
		p := fmt.Sprintf("/r%d", round)
		if err := w.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := app.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
		img := sys.Dev.CrashImage(pmem.CrashDropAll)
		dev := pmem.Restore(img, nil)
		ctrl, _, err := kernel.Mount(dev, kernel.Options{}, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fs2 := libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{})
		r := fs2.NewThread(0).(*libfs.Thread)
		for k := 0; k <= round; k++ {
			if _, err := r.Stat(fmt.Sprintf("/r%d", k)); err != nil {
				t.Fatalf("round %d: released file /r%d lost: %v", round, k, err)
			}
		}
	}
}

// TestModePresets checks the Config plumbing.
func TestModePresets(t *testing.T) {
	plus, err := NewSystem(Config{DevSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if plus.Mode() != ArckFSPlus || plus.NewApp(0, 0).Name() != "arckfs+" {
		t.Fatal("plus preset wrong")
	}
	buggy, err := NewSystem(Config{Mode: ArckFS, DevSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if buggy.Mode() != ArckFS || buggy.NewApp(0, 0).Name() != "arckfs" {
		t.Fatal("buggy preset wrong")
	}
	if ArckFS.String() != "arckfs" || ArckFSPlus.String() != "arckfs+" {
		t.Fatal("mode strings")
	}
	// Bug override.
	bugs := libfs.BugMissingFence
	custom, err := NewSystem(Config{DevSize: 32 << 20, Bugs: &bugs})
	if err != nil {
		t.Fatal(err)
	}
	if custom.NewApp(0, 0).Bugs() != libfs.BugMissingFence {
		t.Fatal("bug override ignored")
	}
}

// NewApp returns fsapi.FS-compatible values.
var _ = func() bool {
	var _ fsapi.FS = (*libfs.FS)(nil)
	return true
}()

// TestRecoverRejectsGarbage ensures Recover surfaces unformatted images.
func TestRecoverRejectsGarbage(t *testing.T) {
	img := make([]byte, 1<<20)
	if _, _, err := Recover(img, Config{}); err == nil {
		t.Fatal("garbage image recovered")
	}
	var pathErr error = fsapi.ErrNotExist
	if !errors.Is(pathErr, fsapi.ErrNotExist) {
		t.Fatal("sanity")
	}
}
