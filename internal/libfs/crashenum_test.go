package libfs

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// tornImages mounts every crash image dev admits now and returns how many
// it mounted and how many recovered a committed dentry over a torn body —
// the §4.2 signature.
func tornImages(t *testing.T, dev *pmem.Device) (images, torn int) {
	t.Helper()
	for ks, img := range everyCrashImage(t, dev, dev.DirtyLineStates(), pmem.CrashDropAll) {
		images++
		_, rep, err := kernel.Mount(pmem.Restore(img, nil), kernel.Options{}, true)
		if err != nil {
			t.Fatalf("crash image %v: recovery failed: %v", ks, err)
		}
		if rep.CorruptDentries > 0 {
			torn++
		}
	}
	return images, torn
}

// TestExhaustiveCrashEnumerationSingleCreate enumerates, at every fence
// of one create, EVERY crash state of its dirty lines (each line any
// prefix of its store history, not just sampled ones) and requires:
//
//   - ArckFS+ (fence present): no crash image contains a torn dentry.
//   - ArckFS (fence missing): at least one crash image does — the §4.2
//     bug is not merely possible but enumerable.
//
// This is bounded model checking over the persistence state space: a
// create touches a handful of lines, so the full space is small.
func TestExhaustiveCrashEnumerationSingleCreate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bugs     Bugs
		wantTorn bool
	}{
		{"arckfs+-fence", BugsNone, false},
		{"arckfs-missing-fence", BugMissingFence, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.New(8<<20, nil)
			ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Bugs: tc.bugs})
			w := fs.NewThread(0).(*Thread)

			// Reach steady state (pools granted, root acquired) so the
			// create's dirty set is only the create itself.
			if err := w.Create("/warmup"); err != nil {
				t.Fatal(err)
			}
			if err := fs.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
			images, torn := 0, 0
			dev.EnableTracking()
			dev.SetObserver(pmem.OnFence(func() {
				n, k := tornImages(t, dev)
				images, torn = images+n, torn+k
			}))
			// A name long enough to span cache lines.
			err = w.Create("/victim-0123456789-0123456789-0123456789-0123456789-0123456789")
			dev.SetObserver(nil)
			if err != nil {
				t.Fatal(err)
			}
			if images < 2 {
				t.Fatalf("the create's fences admitted %d crash images; the enumeration is vacuous", images)
			}
			if (torn > 0) != tc.wantTorn {
				t.Fatalf("%d of %d crash images hold a torn dentry; want the §4.2 bug enumerable: %v", torn, images, tc.wantTorn)
			}
			t.Logf("%d images, %d torn", images, torn)
		})
	}
}

// TestExhaustiveCrashEnumerationUnlink does the same for unlink: the
// single-marker invalidation is atomic in both modes, so no crash state
// may corrupt — the entry is either still live or cleanly gone.
func TestExhaustiveCrashEnumerationUnlink(t *testing.T) {
	dev := pmem.New(8<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Bugs: BugsAll})
	w := fs.NewThread(0).(*Thread)
	if err := w.Create("/doomed"); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	images := 0
	dev.EnableTracking()
	dev.SetObserver(pmem.OnFence(func() {
		for ks, img := range everyCrashImage(t, dev, dev.DirtyLineStates(), pmem.CrashDropAll) {
			images++
			ctrl2, rep, err := kernel.Mount(pmem.Restore(img, nil), kernel.Options{}, true)
			if err != nil {
				t.Fatalf("image %d %v: %v", images, ks, err)
			}
			if rep.CorruptDentries != 0 {
				t.Fatalf("image %d %v: unlink tore a dentry: %s", images, ks, rep)
			}
			// The file is either fully there or fully gone.
			r := New(ctrl2, ctrl2.RegisterApp(0, 0), Options{}).NewThread(0).(*Thread)
			if _, err := r.Stat("/doomed"); err == nil {
				if _, err := r.Open("/doomed"); err != nil {
					t.Fatalf("image %d %v: half-alive file: %v", images, ks, err)
				}
			}
		}
	}))
	err = w.Unlink("/doomed")
	dev.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if images < 2 {
		t.Fatalf("the unlink's fences admitted %d crash images; the enumeration is vacuous", images)
	}
	t.Logf("%d images", images)
}

// TestInodeRecordCrashAtomic enumerates, at every fence of a create and of
// a growing write, every crash state of the dirty inode-table lines — each
// line any prefix of its store history, the epoch's other lines all kept
// or all lost — and requires every record on those lines to read back free
// or valid, never corrupt. The record is one line, so no crash keeps part
// of it; a record spanning two lines tears here in the create's body epoch
// and the write's metadata epoch.
func TestInodeRecordCrashAtomic(t *testing.T) {
	dev := pmem.New(8<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
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
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	lo := int64(fs.geo.TableStart * layout.PageSize)
	hi := lo + int64(fs.geo.TablePages*layout.PageSize)
	images, torn := 0, 0
	check := func() {
		var rec []pmem.LineState
		for _, s := range dev.DirtyLineStates() {
			if s.Off >= lo && s.Off < hi {
				rec = append(rec, s)
			}
		}
		if len(rec) == 0 {
			return
		}
		for _, others := range []pmem.CrashPolicy{pmem.CrashDropAll, pmem.CrashPersistAll} {
			for _, img := range everyCrashImage(t, dev, rec, others) {
				images++
				rdev := pmem.Restore(img, nil)
				for _, s := range rec {
					if _, _, corrupt := layout.ReadInode(rdev, fs.geo, uint64(s.Off-lo)/layout.InodeSize); corrupt {
						torn++
						break
					}
				}
			}
		}
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"create", func() error { return w.Create("/victim") }},
		{"growing write", func() error {
			_, err := w.WriteAt(fd, make([]byte, layout.PageSize+100), 0)
			return err
		}},
	} {
		images, torn = 0, 0
		dev.EnableTracking()
		dev.SetObserver(pmem.OnFence(check))
		err := op.run()
		dev.SetObserver(nil)
		dev.DisableTracking()
		if err != nil {
			t.Fatal(err)
		}
		if images == 0 {
			t.Fatalf("%s left no inode-table line dirty at any fence; the enumeration is vacuous", op.name)
		}
		if torn > 0 {
			t.Errorf("%s: %d of %d crash images hold a corrupt inode record", op.name, torn, images)
		}
	}
}

// bootGrowth commits /f at 100 bytes over a junk tail — 8 KiB of 0xAB
// shrunk to 100 — on a pool of junk pages, and returns it open with
// tracking on.
func bootGrowth(t *testing.T) (*pmem.Device, *Thread, fsapi.FD) {
	t.Helper()
	dev := pmem.New(4<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w := th(t, fs)
	dirtyPool(t, w, 4*layout.PageSize) // the write's fresh blocks must not pass for zeroes
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(fd, bytes.Repeat([]byte{0xAB}, 2*layout.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate("/f", 100); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil { // committed: 100 bytes over a junk tail is the durable baseline
		t.Fatal(err)
	}
	dev.EnableTracking()
	return dev, w, fd
}

// TestGrowthZeroesCrashStates takes, at every fence of a truncate-grow and
// of a write past the end, the crash images where every dirty line is kept
// or lost together, and where each one alone is kept or alone is lost,
// plus seeded samples. Each
// image must recover fsck-clean, and every gap byte below the recovered
// size must read zero: the zeroes are durable before the size that exposes
// them. A map line kept without the size is trimmed by recovery.
func TestGrowthZeroesCrashStates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gapEnd int64 // [100, gapEnd) must read zero once grown
		grow   func(w *Thread, fd fsapi.FD) error
	}{
		{"truncate-grow", 2 * layout.PageSize, func(w *Thread, _ fsapi.FD) error {
			return w.Truncate("/f", 2*layout.PageSize)
		}},
		// Zeroes the rest of block 0 and the head of fresh block 1, then
		// writes across into fresh block 2.
		{"write-past-eof", 6000, func(w *Thread, fd fsapi.FD) error {
			_, err := w.WriteAt(fd, bytes.Repeat([]byte{0x5A}, 4000), 6000)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, w, fd := bootGrowth(t)
			// Each image is judged as it is taken: the run makes hundreds, and
			// keeping them all for a later loop costs gigabytes under -race.
			images, grown := 0, 0
			check := func(img []byte) {
				i := images
				images++
				got, err := recoverFile(t, tc.name, img)
				if err != nil {
					t.Fatalf("image %d: %v", i, err)
				}
				if len(got) > 100 {
					grown++
				}
				gap := got[min(100, len(got)):min(tc.gapEnd, int64(len(got)))]
				if j := nonZero(gap); j >= 0 {
					t.Fatalf("image %d: recovered size %d, gap byte at %d reads %#x", i, len(got), 100+j, gap[j])
				}
			}
			dev.SetObserver(pmem.OnFence(func() {
				corners, _ := dev.CrashImages(dev.DirtyLineStates(), pmem.CrashDropAll, 0, int64(images))
				for _, img := range corners {
					check(img)
				}
			}))
			err := tc.grow(w, fd)
			dev.SetObserver(nil)
			if err != nil {
				t.Fatal(err)
			}
			if grown == 0 {
				t.Fatalf("none of %d images recovered the grown file; the enumeration is vacuous", images)
			}
			t.Logf("%d images, %d grown", images, grown)
		})
	}
}

// TestGrowthZeroesConcurrentReader grows a junk-tailed file while a
// lock-free reader loops ReadAt across the gap: it must read the old EOF
// (nothing) or zeroes, never the pre-shrink bytes. The zeroes are stored
// before the size is published, so the reader that sees the size also
// sees them; the bytes it reads are never the ones being zeroed.
func TestGrowthZeroesConcurrentReader(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	const old, grown = 100, 2 * layout.PageSize
	for round := 0; round < 40; round++ {
		path := fmt.Sprintf("/g%d", round)
		if err := w.Create(path); err != nil {
			t.Fatal(err)
		}
		fd, err := w.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(fd, bytes.Repeat([]byte{0xAB}, grown), 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Truncate(path, old); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		started, done := make(chan struct{}), make(chan error, 1)
		go func() {
			r := fs.NewThread(1).(*Thread)
			defer r.Detach()
			rfd, err := r.Open(path)
			close(started)
			if err != nil {
				done <- err
				return
			}
			buf := make([]byte, grown-old)
			for {
				last := stop.Load()
				n, err := r.ReadAt(rfd, buf, old)
				if err != nil {
					done <- err
					return
				}
				if j := nonZero(buf[:n]); j >= 0 {
					done <- fmt.Errorf("%s: gap byte at %d reads %#x", path, old+j, buf[j])
					return
				}
				if last {
					if n != len(buf) {
						done <- fmt.Errorf("%s: read %d bytes past the old EOF after the grow, want %d", path, n, len(buf))
						return
					}
					done <- nil
					return
				}
			}
		}()
		<-started
		err = w.Truncate(path, grown)
		stop.Store(true)
		if rerr := <-done; err != nil || rerr != nil {
			t.Fatalf("grow: %v; reader: %v", err, rerr)
		}
	}
}

// nonZero returns the index of b's first non-zero byte, or -1.
func nonZero(b []byte) int {
	for i, c := range b {
		if c != 0 {
			return i
		}
	}
	return -1
}

// TestBatchedCreateCrashEnumerationAtMarkerWindow enumerates every crash
// state in the narrowest §4.2 window — the commit marker's flush is
// queued in the write-combining batch but the final fence has not been
// issued — and proves the batcher preserves the ordering-epoch rule:
//
//   - ArckFS+ : the body epoch's Barrier ran before the marker was
//     queued, so no crash state of the remaining dirty lines yields a
//     valid commit marker over a garbage dentry body.
//   - ArckFS (BugMissingFence): under batching the body lines and the
//     marker share one ordering epoch, so the enumeration must still
//     find the torn state — batching does not accidentally fix the bug,
//     it expresses it the same way.
func TestBatchedCreateCrashEnumerationAtMarkerWindow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bugs     Bugs
		wantTorn bool
	}{
		{"arckfs+-fence", BugsNone, false},
		{"arckfs-missing-fence", BugMissingFence, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			images, torn := crashDuringCreate(t, tc.bugs, "/victim-0123456789-0123456789-0123456789-0123456789-0123456789")
			if (torn > 0) != tc.wantTorn {
				t.Fatalf("%d of %d crash images hold a torn dentry under batching; want the §4.2 bug enumerable: %v", torn, images, tc.wantTorn)
			}
		})
	}
}
