package libfs

import (
	"testing"

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
