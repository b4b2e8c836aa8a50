package libfs

import (
	"bytes"
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync"
	"testing"

	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// crashSpaceCap bounds an exhaustive crash-state enumeration: a point
// that admits more images fails its test rather than be sampled.
const crashSpaceCap = 1 << 14

// everyCrashImage returns every crash image dev admits now over lines,
// every other dirty line following rest, and fails t when lines admit
// more than crashSpaceCap of them.
func everyCrashImage(t *testing.T, dev *pmem.Device, lines []pmem.LineState, rest pmem.CrashPolicy) iter.Seq2[[]int, []byte] {
	t.Helper()
	images, exhaustive := dev.CrashImages(lines, rest, crashSpaceCap, 0)
	if !exhaustive {
		t.Fatalf("%d dirty lines admit more than %d crash images; too many to enumerate", len(lines), crashSpaceCap)
	}
	return images
}

// eachCrashImage calls fn with every crash image dev admits now: each
// dirty line persists any prefix of its unfenced store history, every
// combination of them. The hardened regions (layout.Geometry.Hardened)
// persist fully, the premise crashmc's campaign makes too. So does a line
// whose one unfenced store left the bytes it had — a zeroed page that was
// zero — since either choice gives the same image.
func eachCrashImage(t *testing.T, dev *pmem.Device, geo layout.Geometry, fn func(img []byte)) {
	t.Helper()
	durable, volatile := dev.CrashImage(pmem.CrashDropAll), dev.CrashImage(pmem.CrashPersistAll)
	var states []pmem.LineState
	for _, s := range dev.DirtyLineStates() {
		line := func(img []byte) []byte { return img[s.Off : s.Off+pmem.LineSize] }
		if !geo.Hardened(s.Off) && (s.Versions > 1 || !bytes.Equal(line(durable), line(volatile))) {
			states = append(states, s)
		}
	}
	for _, img := range everyCrashImage(t, dev, states, pmem.CrashPersistAll) {
		fn(img)
	}
}

// recoverNames mounts img with repair and returns the root's names and the
// recovery report, failing t unless the repaired image is fsck-clean.
func recoverNames(t *testing.T, img []byte) ([]string, kernel.Report) {
	t.Helper()
	rdev := pmem.Restore(img, nil)
	rctrl, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	if rep2, err := kernel.Fsck(rdev, kernel.Options{}); err != nil || !rep2.Clean() {
		t.Fatalf("fsck after repair: %v %v", rep2, err)
	}
	return mustNames(t, th(t, New(rctrl, rctrl.RegisterApp(0, 0), Options{})), "/"), *rep
}

// TestDeadSlotReuseCrashStates enumerates, at every fence, every crash
// image of a create that fills the dead slot of an unlinked name of the
// same length, the two names differing in every byte — so in every line
// the record spans — and of the release that verifies it. ArckFS+
// recovers without the new name or with it intact, never with the old
// one; without the §4.2 fence some image tears the record. A
// same-directory rename whose new record fills a slot ahead of the old
// one keeps exactly one of its two names in every image: recovery keeps
// the earlier of two records linking one inode, which here is the new
// name. A create whose verified tail page is more than half full but has
// room links a fresh page for its record: across the page's zeroing, the
// link and the record, every image keeps every verified name.
func TestDeadSlotReuseCrashStates(t *testing.T) {
	boot := func(t *testing.T, bugs Bugs, names ...string) (*pmem.Device, *FS, *Thread) {
		dev := pmem.New(1<<20, nil)
		ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 512})
		if err != nil {
			t.Fatal(err)
		}
		fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Bugs: bugs, GrantPageBatch: 16, GrantInoBatch: 32})
		w := th(t, fs)
		for _, n := range names {
			if err := w.Create("/" + n); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.ReleaseAll(); err != nil { // verified
			t.Fatal(err)
		}
		return dev, fs, w
	}
	ref := func(t *testing.T, fs *FS, w *Thread, name string) layout.DentryRef {
		root, err := w.resolve("/")
		if err != nil {
			t.Fatal(err)
		}
		_, r, ok, _ := fs.lookupInDir(w, root, name)
		if !ok {
			t.Fatalf("%s not found", name)
		}
		return layout.DentryRef(r)
	}
	// Records of three and more lines.
	oldName, newName := strings.Repeat("o", 150), strings.Repeat("n", 150)

	for _, tc := range []struct {
		name     string
		bugs     Bugs
		wantTorn bool
	}{
		{"arckfs+", BugsNone, false},
		{"missing-fence", BugMissingFence, true},
	} {
		t.Run("create/"+tc.name, func(t *testing.T) {
			dev, fs, w := boot(t, tc.bugs, oldName)
			slot := ref(t, fs, w, oldName)
			if err := w.Unlink("/" + oldName); err != nil {
				t.Fatal(err)
			}
			images, torn, created := 0, 0, 0
			dev.EnableTracking()
			dev.SetObserver(pmem.OnFence(func() {
				eachCrashImage(t, dev, fs.geo, func(img []byte) {
					images++
					names, rep := recoverNames(t, img)
					if rep.CorruptDentries > 0 {
						torn++
						if !tc.wantTorn {
							t.Fatalf("image %d: torn record: %s", images, rep.String())
						}
					}
					if slices.Contains(names, oldName) {
						t.Fatalf("image %d: the unlinked name is back", images)
					}
					if slices.Contains(names, newName) {
						created++
					}
				})
			}))
			// The release verifies the new name: only from then on may an
			// image keep it.
			err := w.Create("/" + newName)
			if err == nil {
				err = fs.ReleaseAll()
			}
			dev.SetObserver(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref(t, fs, w, newName); got != slot {
				t.Fatalf("the create wrote its record at %#x, not into the dead slot at %#x", got, slot)
			}
			if tc.wantTorn && torn == 0 {
				t.Fatalf("none of %d crash images tore the record; the §4.2 bug should show on a reused slot too", images)
			}
			if !tc.wantTorn && created == 0 {
				t.Fatalf("none of %d crash images kept the new name; the enumeration is vacuous", images)
			}
			t.Logf("%d images, %d torn, %d with the new name", images, torn, created)
		})
	}

	t.Run("rename-ahead", func(t *testing.T) {
		// "early-…" and "later-…" are as long as each other; "moved" is not.
		early, moved, target := "early-"+oldName[:20], "moved", "later-"+oldName[:20]
		dev, fs, w := boot(t, BugsNone, early, moved)
		slot, from := ref(t, fs, w, early), ref(t, fs, w, moved)
		if err := w.Unlink("/" + early); err != nil {
			t.Fatal(err)
		}
		images, both := 0, 0 // both: images holding both records live
		dev.EnableTracking()
		dev.SetObserver(pmem.OnFence(func() {
			eachCrashImage(t, dev, fs.geo, func(img []byte) {
				images++
				names, rep := recoverNames(t, img)
				if slices.Contains(names, moved) == slices.Contains(names, target) {
					t.Fatalf("image %d: the renamed file is under %v", images, names)
				}
				if rep.DanglingEntries > 0 {
					both++
					if !slices.Contains(names, target) {
						t.Fatalf("image %d: recovery kept the later record, %q", images, moved)
					}
				}
			})
		}))
		err := w.Rename("/"+moved, "/"+target)
		dev.SetObserver(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := ref(t, fs, w, target); got != slot || got.Page() != from.Page() || got.Off() > from.Off() {
			t.Fatalf("the new name's record is at %#x, want the dead slot %#x ahead of the old one at %#x", got, slot, from)
		}
		if both == 0 {
			t.Fatalf("none of %d crash images held both records live; the enumeration is vacuous", images)
		}
	})

	t.Run("fresh-page", func(t *testing.T) {
		// 40 records of 80 bytes fill the verified tail page past half.
		var verified []string
		for i := 0; i < 40; i++ {
			verified = append(verified, fmt.Sprintf("kept-%02d-%s", i, oldName[:52]))
		}
		newName := "young-" + newName[:54]
		dev, fs, w := boot(t, BugsNone, verified...)
		last := ref(t, fs, w, verified[len(verified)-1])
		frontier := last.Off() + layout.DentryRecLen(len(verified[0]))
		if frontier < verifiedPageFull || !layout.DentryFits(frontier, len(newName)) {
			t.Fatalf("the verified tail page's frontier is %d: want half full, with room for the new record", frontier)
		}
		images, created := 0, 0
		dev.EnableTracking()
		dev.SetObserver(pmem.OnFence(func() {
			eachCrashImage(t, dev, fs.geo, func(img []byte) {
				images++
				names, rep := recoverNames(t, img)
				if rep.CorruptDentries > 0 {
					t.Fatalf("image %d: torn record: %s", images, rep.String())
				}
				for _, n := range verified {
					if !slices.Contains(names, n) {
						t.Fatalf("image %d: the verified name %q is gone", images, n)
					}
				}
				if slices.Contains(names, newName) {
					created++
				}
			})
		}))
		err := w.Create("/" + newName)
		if err == nil {
			err = fs.ReleaseAll()
		}
		dev.SetObserver(nil)
		if err != nil {
			t.Fatal(err)
		}
		// The release verified the new name: from here on every image
		// keeps it.
		eachCrashImage(t, dev, fs.geo, func(img []byte) {
			if names, _ := recoverNames(t, img); !slices.Contains(names, newName) {
				t.Fatalf("a crash after the release loses the verified name %q", newName)
			}
		})
		if got := ref(t, fs, w, newName); got.Page() == last.Page() || got.Off() != 0 {
			t.Fatalf("the create wrote its record at %#x, not at the head of a fresh page after %d", got, last.Page())
		}
		if created == 0 {
			t.Fatalf("none of %d crash images kept the new name; the enumeration is vacuous", images)
		}
		t.Logf("%d images, %d with the new name", images, created)
	})
}

// TestDeadSlotReuseConcurrent runs an unlinking and a creating thread of
// one application on different tails of one directory, round after round
// with ReleaseAll in between: the creates fill the slots the unlinks free,
// in the other tail's pages, while the unlinks go on. Run under -race. The
// names must come out exact, the log must stay a few batches long, and
// the result must mount fsck-clean and rebuild in a second application.
func TestDeadSlotReuseConcurrent(t *testing.T) {
	const rounds, batch = 12, 32
	fs := newFS(t, BugsNone)
	peer := New(kctl(fs), kctl(fs).RegisterApp(0, 0), Options{})
	name := func(round, i int) string { return fmt.Sprintf("/d/r%02d-%03d", round, i) }
	unlinker, creator := fs.NewThread(0).(*Thread), fs.NewThread(1).(*Thread)
	if err := unlinker.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batch; i++ {
		if err := unlinker.Create(name(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < batch; i++ {
				if err := unlinker.Unlink(name(round-1, i)); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < batch; i++ {
				if err := creator.Create(name(round, i)); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := fs.ReleaseAll(); err != nil {
			t.Fatalf("round %d release: %v", round, err)
		}
		var want []string
		for i := 0; i < batch; i++ {
			want = append(want, strings.TrimPrefix(name(round, i), "/d/"))
		}
		if got := mustNames(t, unlinker, "/d"); !slices.Equal(got, want) {
			t.Fatalf("round %d: %d names, want %d", round, len(got), len(want))
		}
	}
	d, err := unlinker.resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	slots := 0
	for _, chain := range fs.dirLogPages(d.dir.peek()) {
		if len(chain) > 0 {
			layout.ScanTail(fs.dev, chain[0], func(layout.RawDentry) bool { slots++; return true })
		}
	}
	// Without reuse every create appends: (rounds+1)×batch slots.
	if slots > 3*batch {
		t.Fatalf("%d creates left %d record slots", (rounds+1)*batch, slots)
	}
	if got := mustNames(t, th(t, peer), "/d"); len(got) != batch {
		t.Fatalf("a second application sees %d names, want %d", len(got), batch)
	}
	if err := peer.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if rep, err := kernel.Fsck(fs.dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", rep, err)
	}
}
