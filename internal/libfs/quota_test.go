package libfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// TestQuotaHostileTenant is what page and inode quotas are for. Two apps
// share one controller; A takes pages one grant at a time until the kernel
// refuses, then inode numbers the same way, and B then creates and writes
// a file. Unlimited, A drains the device and B's create fails with ENOSPC;
// under a quota A stops at ErrQuota on both paths and B's file works.
func TestQuotaHostileTenant(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quota  kernel.Quota
		stop   error // what ends A's grant loops
		victim error // what B's create-and-write returns
	}{
		{"unlimited", kernel.Quota{}, fsapi.ErrNoSpace, fsapi.ErrNoSpace},
		{"quota", kernel.Quota{MaxPages: 256, MaxInodes: 64}, kernel.ErrQuota, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, err := kernel.Format(pmem.New(8<<20, nil), kernel.Options{InodeCap: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			a, b := ctrl.RegisterApp(0, 0), ctrl.RegisterApp(0, 0)
			if err := ctrl.SetQuota(a, tc.quota); err != nil {
				t.Fatal(err)
			}
			pages, err := hoard(func() error { _, err := ctrl.GrantPages(a, 0, 1); return err })
			if !errors.Is(err, tc.stop) {
				t.Fatalf("A's page grants ended after %d with %v, want %v", pages, err, tc.stop)
			}
			inos, err := hoard(func() error { _, err := ctrl.GrantInodes(a, 1); return err })
			if !errors.Is(err, tc.stop) {
				t.Fatalf("A's inode grants ended after %d with %v, want %v", inos, err, tc.stop)
			}

			w := th(t, New(ctrl, b, Options{}))
			err = w.Create("/victim")
			if err == nil {
				var fd fsapi.FD
				if fd, err = w.Open("/victim"); err == nil {
					_, err = w.WriteAt(fd, []byte("still here"), 0)
				}
			}
			if !errors.Is(err, tc.victim) {
				t.Fatalf("B's create and write after A took %d pages and %d inodes: %v, want %v",
					pages, inos, err, tc.victim)
			}
		})
	}
}

// hoard repeats grant until it fails, returning how many grants succeeded
// and the error that ended the run.
func hoard(grant func() error) (n int, err error) {
	for err = grant(); err == nil; err = grant() {
		n++
	}
	return n, err
}

// capAtUsage sets fs's app quota to what the app holds now — pages,
// inode numbers or both — so its next grant of that kind fails with
// ErrQuota.
func capAtUsage(fs *FS, pages, inodes bool) error {
	u, err := usageOf(fs)
	if err != nil {
		return err
	}
	var q kernel.Quota
	if pages {
		q.MaxPages = u.PagesOut
	}
	if inodes {
		q.MaxInodes = u.InodesGranted
	}
	return kctl(fs).SetQuota(fs.app, q)
}

// usageOf returns fs's app's row of the kernel's usage table.
func usageOf(fs *FS) (kernel.AppUsage, error) {
	for _, u := range kctl(fs).Usage() {
		if u.App == fs.app {
			return u, nil
		}
	}
	return kernel.AppUsage{}, fmt.Errorf("app %d has no usage row", fs.app)
}

// TestAllocReclaimsRetiredOnGrantFailure drives reclaimRetired: a kernel
// grant fails while resources the app unlinked still wait out a grace
// period. With the quota at usage every grant fails, so the allocation
// succeeds only if the LibFS drains its retire queue and retries. Each
// case runs under a deadline: a grace-period wait under a pool lock
// deadlocks on the reclaim callback that needs that lock, and must fail
// here rather than hang the package.
func TestAllocReclaimsRetiredOnGrantFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(fs *FS, w *Thread) error
	}{
		{"pages", reclaimPages},
		{"inodes", reclaimInodes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t, BugsNone)
			w := th(t, fs)
			done := make(chan error, 1)
			go func() { done <- tc.run(fs, w) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no return within 10 s: an allocation waits for a grace period that cannot end")
			}
		})
	}
}

// reclaimPages unlinks a 16-page file with the page quota at usage, then
// appends to another file past what its stripe has pooled. The first
// appends take pooled pages while the unlinked file's pages are still
// retired; the rest exist only once those are reclaimed.
func reclaimPages(fs *FS, w *Thread) error {
	const n = 16
	for _, p := range []string{"/a", "/b"} {
		if err := w.Create(p); err != nil {
			return err
		}
	}
	a, err := w.Open("/a")
	if err != nil {
		return err
	}
	if _, err := w.WriteAt(a, make([]byte, n*layout.PageSize), 0); err != nil {
		return err
	}
	if err := capAtUsage(fs, true, false); err != nil {
		return err
	}
	if err := w.Unlink("/a"); err != nil {
		return err
	}
	if fs.dom.Pending() == 0 {
		return errors.New("unlinking /a retired nothing")
	}
	s := uint(w.cpu) % 8
	fs.pageMu[s].Lock()
	pooled := len(fs.pagePool[s])
	fs.pageMu[s].Unlock()
	b, err := w.Open("/b")
	if err != nil {
		return err
	}
	block := make([]byte, layout.PageSize)
	for i := range pooled + n/2 {
		if _, err := w.WriteAt(b, block, int64(i)*layout.PageSize); err != nil {
			return fmt.Errorf("append %d of %d (%d pages pooled at the quota): %w", i+1, pooled+n/2, pooled, err)
		}
	}
	if fs.dom.Pending() != 0 {
		return errors.New("the unlinked file's pages were never reclaimed")
	}
	return nil
}

// reclaimInodes is reclaimPages for inode numbers: with the inode quota at
// usage, an unlinked file's number is what the create after the pool's
// last one gets.
func reclaimInodes(fs *FS, w *Thread) error {
	if err := w.Create("/a"); err != nil {
		return err
	}
	if err := capAtUsage(fs, false, true); err != nil {
		return err
	}
	if err := w.Unlink("/a"); err != nil {
		return err
	}
	if fs.dom.Pending() == 0 {
		return errors.New("unlinking /a retired nothing")
	}
	fs.inoMu.Lock()
	pooled := len(fs.inoPool)
	fs.inoMu.Unlock()
	for i := range pooled + 1 {
		if err := w.Create(fmt.Sprintf("/f%d", i)); err != nil {
			return fmt.Errorf("create %d of %d (%d numbers pooled at the quota): %w", i+1, pooled+1, pooled, err)
		}
	}
	if fs.dom.Pending() != 0 {
		return errors.New("the unlinked file's number was never reclaimed")
	}
	return nil
}

// TestOpsEndOnAnEpochBoundary pins the rule the thread's batch is built
// on: every operation, failed ones included, ends on a Barrier, so no
// queued write-back outlives the operation that queued it. A line left
// queued would become durable only at a later operation's fence, after
// stores that operation meant to order behind it.
func TestOpsEndOnAnEpochBoundary(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	step := func(op string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: %v, want %v", op, err, want)
		}
		if n := w.pb.Pending(); n != 0 {
			t.Fatalf("%s (error %v) returned with %d lines queued in the thread's batch", op, err, n)
		}
	}
	step("create", w.Create("/f"), nil)
	step("create an existing name", w.Create("/f"), fsapi.ErrExist)
	step("create in a missing directory", w.Create("/none/f"), fsapi.ErrNotExist)
	step("mkdir", w.Mkdir("/d"), nil)
	step("mkdir an existing name", w.Mkdir("/d"), fsapi.ErrExist)
	step("create in a subdirectory", w.Create("/d/g"), nil)

	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	write := func(n int, off int64) error {
		_, err := w.WriteAt(fd, make([]byte, n), off)
		return err
	}
	step("write", write(layout.PageSize, 0), nil)
	step("overwrite in place", write(100, 10), nil)
	step("write past the end", write(100, 3*layout.PageSize+10), nil)
	step("truncate to shrink", w.Truncate("/f", 10), nil)
	step("truncate to grow", w.Truncate("/f", 2*layout.PageSize+5), nil)
	step("truncate a missing file", w.Truncate("/none", 0), fsapi.ErrNotExist)

	step("rename", w.Rename("/f", "/f2"), nil)
	step("rename across directories", w.Rename("/f2", "/d/f"), nil)
	step("rename onto an existing name", w.Rename("/d/f", "/d/g"), fsapi.ErrExist)
	step("rename a missing name", w.Rename("/none", "/x"), fsapi.ErrNotExist)
	step("rmdir a non-empty directory", w.Rmdir("/d"), fsapi.ErrNotEmpty)
	step("unlink", w.Unlink("/d/g"), nil)
	step("unlink a missing name", w.Unlink("/d/g"), fsapi.ErrNotExist)

	if err := capAtUsage(fs, false, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if err := w.Create(fmt.Sprintf("/q%d", i)); err != nil {
			step("create past the inode quota", err, kernel.ErrQuota)
			break
		}
		step("create within the inode quota", nil, nil)
	}
	if err := capAtUsage(fs, true, true); err != nil {
		t.Fatal(err)
	}
	// The write zeroes [10, 20) first, queuing its ragged line, and then
	// runs out of pages: the error path must drain that line.
	step("truncate to shrink again", w.Truncate("/d/f", 10), nil)
	step("write past the page quota", write((2*fs.opts.GrantPageBatch+64)*layout.PageSize, 20), kernel.ErrQuota)
}
