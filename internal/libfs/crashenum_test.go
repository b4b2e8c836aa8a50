package libfs

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// TestExhaustiveCrashEnumerationSingleCreate enumerates EVERY all-or-
// nothing line subset of the unpersisted state left by one create (not
// just sampled ones) and requires:
//
//   - ArckFS+ (fence present): no crash image contains a torn dentry.
//   - ArckFS (fence missing): at least one crash image does — the §4.2
//     bug is not merely possible but enumerable.
//
// This is bounded model checking over the persistence state space: with
// the per-line prefix rule fixed to "all or nothing", a create touches a
// handful of lines, so the full 2^k space is small.
func TestExhaustiveCrashEnumerationSingleCreate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bugs     Bugs
		wantTorn bool
	}{
		{"arckfs+-fence", BugsNone, false},
		{"arckfs-missing-fence", BugMissingFence, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.New(64<<20, nil)
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
			dev.EnableTracking()
			// A name long enough to span cache lines.
			if err := w.Create("/victim-0123456789-0123456789-0123456789-0123456789-0123456789"); err != nil {
				t.Fatal(err)
			}

			lines := dev.DirtyLines()
			if len(lines) == 0 {
				// Everything already fenced durable: only the complete
				// image exists; nothing to enumerate. (This is what the
				// patched two-fence protocol can produce.)
				return
			}
			if len(lines) > 14 {
				t.Fatalf("dirty set unexpectedly large: %d lines", len(lines))
			}
			sawTorn := false
			total := 1 << len(lines)
			for mask := 0; mask < total; mask++ {
				keep := map[int64]bool{}
				for i, l := range lines {
					if mask&(1<<i) != 0 {
						keep[l] = true
					}
				}
				img := dev.CrashImage(func(lineOff int64, versions int) int {
					if keep[lineOff] {
						return versions
					}
					return 0
				})
				rdev := pmem.Restore(img, nil)
				_, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
				if err != nil {
					t.Fatalf("mask %b: recovery failed: %v", mask, err)
				}
				if rep.CorruptDentries > 0 {
					sawTorn = true
					if !tc.wantTorn {
						t.Fatalf("mask %b: fence-protected create produced a torn dentry: %s", mask, rep)
					}
				}
			}
			if tc.wantTorn && !sawTorn {
				t.Fatalf("no crash subset of %d lines tore the dentry; the §4.2 bug should be enumerable", len(lines))
			}
		})
	}
}

// TestExhaustiveCrashEnumerationUnlink does the same for unlink: the
// single-marker invalidation is atomic in both modes, so no subset may
// corrupt — the entry is either still live or cleanly gone.
func TestExhaustiveCrashEnumerationUnlink(t *testing.T) {
	dev := pmem.New(64<<20, nil)
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
	dev.EnableTracking()
	if err := w.Unlink("/doomed"); err != nil {
		t.Fatal(err)
	}
	lines := dev.DirtyLines()
	if len(lines) > 14 {
		t.Fatalf("unlink dirtied %d lines", len(lines))
	}
	for mask := 0; mask < 1<<len(lines); mask++ {
		keep := map[int64]bool{}
		for i, l := range lines {
			if mask&(1<<i) != 0 {
				keep[l] = true
			}
		}
		img := dev.CrashImage(func(lineOff int64, versions int) int {
			if keep[lineOff] {
				return versions
			}
			return 0
		})
		rdev := pmem.Restore(img, nil)
		ctrl2, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		if rep.CorruptDentries != 0 {
			t.Fatalf("mask %b: unlink tore a dentry: %s", mask, rep)
		}
		// The file is either fully there or fully gone.
		fs2 := New(ctrl2, ctrl2.RegisterApp(0, 0), Options{})
		r := fs2.NewThread(0).(*Thread)
		if _, err := r.Stat("/doomed"); err == nil {
			if _, err := r.Open("/doomed"); err != nil {
				t.Fatalf("mask %b: half-alive file: %v", mask, err)
			}
		}
	}
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
		keep := map[int64]int{}
		var walk func(i int)
		walk = func(i int) {
			if i < len(rec) {
				for v := 0; v <= rec[i].Versions; v++ {
					keep[rec[i].Off] = v
					walk(i + 1)
				}
				return
			}
			for _, others := range []bool{false, true} {
				img := dev.CrashImage(func(off int64, versions int) int {
					if v, ok := keep[off]; ok {
						return v
					}
					if others {
						return versions
					}
					return 0
				})
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
		if len(rec) > 0 {
			walk(0)
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
		dev.SetFenceObserver(check)
		err := op.run()
		dev.SetFenceObserver(nil)
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
// or lost together, and where each one alone is kept or alone is lost. Each
// image must recover fsck-clean, and every gap byte below the recovered
// size must read zero: the zeroes are durable before the size that exposes
// them. A map line kept without the size makes the file unreadable at
// acquire (ROADMAP 3(b), not this test's concern); those images are counted
// and skipped.
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
			var imgs [][]byte
			dev.SetFenceObserver(func() {
				imgs = append(imgs, dev.CrashImage(pmem.CrashDropAll), dev.CrashImage(pmem.CrashPersistAll))
				for _, l := range dev.DirtyLines() {
					for _, alone := range []bool{true, false} {
						imgs = append(imgs, dev.CrashImage(func(o int64, versions int) int {
							if (o == l) == alone {
								return versions
							}
							return 0
						}))
					}
				}
			})
			err := tc.grow(w, fd)
			dev.SetFenceObserver(nil)
			if err != nil {
				t.Fatal(err)
			}
			grown, torn := 0, 0
			for i, img := range imgs {
				got, err := recoverFile(t, tc.name, img)
				if err != nil && strings.Contains(err.Error(), "block pointer beyond size") {
					torn++
					continue
				}
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
			if grown == 0 {
				t.Fatalf("none of %d images recovered the grown file; the enumeration is vacuous", len(imgs))
			}
			t.Logf("%d images, %d grown, %d map lines without the size", len(imgs), grown, torn)
		})
	}
}

// TestGrowthZeroesConcurrentReader grows a junk-tailed file while a
// lock-free reader loops ReadAt across the gap: it must read the old EOF
// (nothing) or zeroes, never the pre-shrink bytes. The zeroes are stored
// before the size is published, so the reader that sees the size also
// sees them; the bytes it reads are never the ones being zeroed.
func TestGrowthZeroesConcurrentReader(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
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

// TestBatchedCreateCrashEnumerationAtMarkerWindow enumerates crash
// states in the narrowest §4.2 window — the commit marker's flush is
// queued in the write-combining batch but the final fence has not been
// issued — and proves the batcher preserves the ordering-epoch rule:
//
//   - ArckFS+ : the body epoch's Barrier ran before the marker was
//     queued, so no all-or-nothing subset of the remaining dirty lines
//     yields a valid commit marker over a garbage dentry body.
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
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dev := pmem.New(8<<20, nil)
			ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			var imgs [][]byte
			hooks := &Hooks{CreateBeforeMarkerFence: func() {
				if !dev.Tracking() {
					return // warmup create, before the measured window
				}
				lines := dev.DirtyLines()
				if len(lines) > 14 {
					t.Errorf("dirty set at marker window unexpectedly large: %d lines", len(lines))
					return
				}
				for mask := 0; mask < 1<<len(lines); mask++ {
					keep := map[int64]bool{}
					for i, l := range lines {
						if mask&(1<<i) != 0 {
							keep[l] = true
						}
					}
					imgs = append(imgs, dev.CrashImage(func(lineOff int64, versions int) int {
						if keep[lineOff] {
							return versions
						}
						return 0
					}))
				}
			}}
			fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Bugs: tc.bugs, Hooks: hooks})
			w := fs.NewThread(0).(*Thread)
			if err := w.Create("/warmup"); err != nil {
				t.Fatal(err)
			}
			if err := fs.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
			dev.EnableTracking()
			if err := w.Create("/victim-0123456789-0123456789-0123456789-0123456789-0123456789"); err != nil {
				t.Fatal(err)
			}
			if len(imgs) == 0 {
				t.Fatal("marker-window hook never fired")
			}
			sawTorn := false
			for i, img := range imgs {
				rdev := pmem.Restore(img, nil)
				_, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
				if err != nil {
					t.Fatalf("image %d: recovery failed: %v", i, err)
				}
				if rep.CorruptDentries > 0 {
					sawTorn = true
					if !tc.wantTorn {
						t.Fatalf("image %d: batched fence-protected create produced a torn dentry: %s", i, rep)
					}
				}
			}
			if tc.wantTorn && !sawTorn {
				t.Fatal("no crash subset tore the dentry under batching; the §4.2 bug should still be enumerable")
			}
		})
	}
}
