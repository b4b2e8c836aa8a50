package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/libfs"
)

// TestMultiAppHandoffStress bounces a working set between applications
// through verified releases, concurrently with in-app worker threads,
// and requires the verified state to stay exact.
func TestMultiAppHandoffStress(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	producer := sys.NewApp(0, 0)
	consumer := sys.NewApp(0, 0)

	pw := producer.NewThread(0).(*libfs.Thread)
	if err := pw.Mkdir("/queue"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for round := 0; round < 10; round++ {
		// Producer adds a few files and hands the tree over.
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("/queue/r%d-f%d", round, i)
			body := fmt.Sprintf("round %d item %d", round, i)
			if err := pw.Create(name); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			fd, _ := pw.Open(name)
			if _, err := pw.WriteAt(fd, []byte(body), 0); err != nil {
				t.Fatal(err)
			}
			pw.Close(fd)
			want[name] = body
		}
		if err := producer.ReleaseAll(); err != nil {
			t.Fatalf("round %d release: %v", round, err)
		}

		// Consumer validates everything so far, then releases back.
		cw := consumer.NewThread(0).(*libfs.Thread)
		for name, body := range want {
			fd, err := cw.Open(name)
			if err != nil {
				t.Fatalf("round %d: consumer open %s: %v", round, name, err)
			}
			buf := make([]byte, len(body))
			if _, err := cw.ReadAt(fd, buf, 0); err != nil || string(buf) != body {
				t.Fatalf("round %d: %s = %q, %v", round, name, buf, err)
			}
			cw.Close(fd)
		}
		if err := consumer.ReleaseAll(); err != nil {
			t.Fatalf("round %d consumer release: %v", round, err)
		}
	}
	st := sys.Ctrl.Stats.Snapshot()
	if st.Verifications == 0 || st.VerifyFailures != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestInvoluntaryReleaseUnderLeaseExpiry lets a second application steal
// an inode whose holder's lease lapsed, while the holder keeps working —
// the patched LibFS remaps instead of crashing.
func TestInvoluntaryReleaseUnderLeaseExpiry(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 64 << 20, LeaseTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a1 := sys.NewApp(0, 0)
	a2 := sys.NewApp(0, 0)
	w1 := a1.NewThread(0).(*libfs.Thread)
	if err := w1.Create("/contended"); err != nil {
		t.Fatal(err)
	}
	if err := a1.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	fd1, err := w1.Open("/contended")
	if err != nil {
		t.Fatal(err)
	}
	// Let the lease lapse, then the second app takes the file.
	time.Sleep(5 * time.Millisecond)
	w2 := a2.NewThread(0).(*libfs.Thread)
	fd2, err := w2.Open("/contended")
	if err != nil {
		t.Fatalf("steal after lease expiry: %v", err)
	}
	if _, err := w2.WriteAt(fd2, []byte("second"), 0); err != nil {
		t.Fatal(err)
	}
	// The original holder's next write re-acquires transparently (after
	// the second app's lease lapses in turn), which forces an
	// involuntary release of the second holder.
	time.Sleep(5 * time.Millisecond)
	if _, err := w1.WriteAt(fd1, []byte("first-again"), 0); err != nil {
		t.Fatalf("holder could not continue after revocation: %v", err)
	}
	if sys.Ctrl.Stats.Involuntary.Load() == 0 {
		t.Fatal("no involuntary release recorded")
	}
}

// TestStaleReadIsCounted: a read-only touch of a released directory that
// a peer now holds does not steal it; it is served from the retained
// (last-verified) auxiliary state and shows up in libfs.stale_reads.
func TestStaleReadIsCounted(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.NewApp(0, 0), sys.NewApp(0, 0)
	w := a.NewThread(0)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := w.Create("/d/name"); err != nil {
		t.Fatal(err)
	}
	dir, err := w.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ctrl.Acquire(b.App(), dir.Ino, true); err != nil {
		t.Fatal(err)
	}
	if st, err := w.Stat("/d/name"); err != nil || st.Dir {
		t.Fatalf("stat under a peer's hold: %+v, %v", st, err)
	}
	if got := sys.Telemetry().Snapshot()["libfs.stale_reads"]; got != 1 {
		t.Fatalf("libfs.stale_reads = %d, want 1", got)
	}
	if owner := sys.Ctrl.OwnerOf(dir.Ino); owner != b.App() {
		t.Fatalf("the read moved /d to app %d, want it left with %d", owner, b.App())
	}
}

// TestRCUGauges: an unlink burst leaves its bucket entries and inode
// numbers queued behind a grace period, where rcu.pending shows them;
// ReleaseAll drains the domain, which moves rcu.reclaimed by as many and
// rcu.grace_periods by at least the one it took.
func TestRCUGauges(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := sys.NewApp(0, 0)
	w := a.NewThread(0)
	const files = 40
	for i := 0; i < files; i++ {
		if err := w.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		if err := w.Unlink(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Telemetry().Snapshot()
	// An entry and a retiree for each file.
	if got := before["rcu.pending"]; got != 2*files {
		t.Fatalf("rcu.pending = %d after %d unlinks, want %d", got, files, 2*files)
	}
	if err := a.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	after := sys.Telemetry().Snapshot()
	if after["rcu.pending"] != 0 ||
		after["rcu.reclaimed"]-before["rcu.reclaimed"] != 2*files ||
		after["rcu.grace_periods"] <= before["rcu.grace_periods"] {
		t.Fatalf("after ReleaseAll: pending %d, reclaimed %d -> %d, grace periods %d -> %d",
			after["rcu.pending"], before["rcu.reclaimed"], after["rcu.reclaimed"],
			before["rcu.grace_periods"], after["rcu.grace_periods"])
	}
}

// TestParallelAppsPrivateTrees runs several applications concurrently on
// disjoint trees with worker threads each, under full verification at
// the end. Run with -race.
func TestParallelAppsPrivateTrees(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const apps = 3
	const workers = 2
	var wg sync.WaitGroup
	errs := make([]error, apps)
	appsV := make([]*libfs.FS, apps)
	for a := 0; a < apps; a++ {
		appsV[a] = sys.NewApp(0, 0)
	}
	// Each app claims a private top-level dir first, sequentially (the
	// root is shared; per-app subtrees are disjoint).
	for a := 0; a < apps; a++ {
		w := appsV[a].NewThread(0).(*libfs.Thread)
		if err := w.Mkdir(fmt.Sprintf("/app%d", a)); err != nil {
			t.Fatal(err)
		}
		if err := appsV[a].ReleaseAll(); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			app := appsV[a]
			var iwg sync.WaitGroup
			werrs := make([]error, workers)
			for k := 0; k < workers; k++ {
				iwg.Add(1)
				go func(k int) {
					defer iwg.Done()
					w := app.NewThread(k).(*libfs.Thread)
					defer w.Detach()
					rng := rand.New(rand.NewSource(int64(a*10 + k)))
					dir := fmt.Sprintf("/app%d", a)
					buf := make([]byte, 512)
					for i := 0; i < 150; i++ {
						p := fmt.Sprintf("%s/w%d-f%d", dir, k, rng.Intn(20))
						switch rng.Intn(4) {
						case 0:
							if err := w.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
								werrs[k] = err
								return
							}
						case 1:
							if fd, err := w.Open(p); err == nil {
								if _, err := w.WriteAt(fd, buf, int64(rng.Intn(2048))); err != nil {
									werrs[k] = err
									return
								}
								w.Close(fd)
							}
						case 2:
							if err := w.Unlink(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
								werrs[k] = err
								return
							}
						case 3:
							if _, err := w.Stat(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
								werrs[k] = err
								return
							}
						}
					}
				}(k)
			}
			iwg.Wait()
			for _, e := range werrs {
				if e != nil {
					errs[a] = e
					return
				}
			}
			errs[a] = app.ReleaseAll()
		}(a)
	}
	wg.Wait()
	for a, err := range errs {
		if err != nil {
			t.Fatalf("app %d: %v", a, err)
		}
	}
	if sys.Ctrl.Stats.VerifyFailures.Load() != 0 {
		t.Fatalf("verification failures: %+v", sys.Ctrl.Stats.Snapshot())
	}
}
