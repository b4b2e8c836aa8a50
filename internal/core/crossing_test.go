package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
)

// TestCrossingAtomicByEnumeration proves by enumeration that a release
// crossing's records may persist in any cross-record order. The kernel
// queues a crossing's shadow and inode-table writes and persists them under
// the crossing's single fence, so until that fence any subset of its
// records may have reached PM. One small handoff turn — two creates, two
// unlinks of the peer's committed files, a block overwrite and a
// same-directory rename — is stopped at that fence, and every assignment
// of each dirty record to its old or its new content is recovered: each
// must mount, be fsck-clean after the repair, and resolve every path
// verified before the crossing that the turn left in place. A record is
// one line, so it persists whole; what is enumerated is the order across
// records.
func TestCrossingAtomicByEnumeration(t *testing.T) {
	dev := pmem.New(4<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	app := func() *libfs.FS {
		return libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{GrantInoBatch: 32, GrantPageBatch: 32})
	}
	peer, me := app(), app()
	pw, mw := peer.NewThread(0).(*libfs.Thread), me.NewThread(0).(*libfs.Thread)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	writeBlock := func(w *libfs.Thread, path string, fill byte) []byte {
		t.Helper()
		fd, err := w.Open(path)
		must(err)
		buf := bytes.Repeat([]byte{fill}, layout.PageSize)
		_, err = w.WriteAt(fd, buf, 0)
		must(err)
		must(w.Close(fd))
		return buf
	}
	// The peer's committed state.
	must(pw.Mkdir("/d"))
	for _, n := range []string{"s0", "s1", "s2", "p0", "p1", "old", "data"} {
		must(pw.Create("/d/" + n))
	}
	writeBlock(pw, "/d/data", 'o')
	must(peer.ReleaseAll())

	// The turn, untracked up to its release: only the crossing's own
	// writes are dirty at its fence.
	must(mw.Create("/d/m0"))
	must(mw.Create("/d/m1"))
	must(mw.Unlink("/d/p0"))
	must(mw.Unlink("/d/p1"))
	data := writeBlock(mw, "/d/data", 'n')
	must(mw.Rename("/d/old", "/d/new"))
	verified := []string{"/d", "/d/s0", "/d/s1", "/d/s2", "/d/new", "/d/data"}
	gone := []string{"/d/p0", "/d/p1", "/d/old"}

	g := ctrl.Geometry()
	var records [][]pmem.LineState // dirty lines by record
	fences := 0
	dev.EnableTracking()
	dev.SetFenceObserver(func() {
		fences++
		byRecord := map[int64]int{}
		for _, s := range dev.DirtyLineStates() {
			if s.Off < int64(g.TableStart)*layout.PageSize || s.Off >= int64(g.DataStart)*layout.PageSize {
				t.Errorf("line %#x dirty at the crossing's fence lies outside the inode and shadow tables", s.Off)
				continue
			}
			rec := s.Off / layout.InodeSize
			if _, ok := byRecord[rec]; !ok {
				byRecord[rec] = len(records)
				records = append(records, nil)
			}
			records[byRecord[rec]] = append(records[byRecord[rec]], s)
		}
		if len(records) > 12 {
			t.Fatalf("%d dirty records at the fence: more than 4096 images", len(records))
		}
		for mask := 0; mask < 1<<len(records); mask++ {
			keep := map[int64]int{}
			for i, rec := range records {
				for _, s := range rec {
					if mask&(1<<i) != 0 {
						keep[s.Off] = s.Versions
					}
				}
			}
			checkCrossingImage(t, fmt.Sprintf("records %0*b", len(records), mask),
				dev.CrashImage(func(off int64, _ int) int { return keep[off] }), verified, gone, data)
		}
	})
	must(me.ReleaseAll())
	dev.SetFenceObserver(nil)
	if fences != 1 {
		t.Fatalf("the release issued %d fences, want the crossing's one", fences)
	}
	// Two new shadows, two freed ones (a line each), and the shadows of
	// the root, the directory, the overwritten and the renamed file.
	if len(records) != 8 {
		t.Fatalf("%d records dirty at the fence, want 8", len(records))
	}
}

// checkCrossingImage recovers one crash image of the crossing and checks it.
func checkCrossingImage(t *testing.T, what string, img []byte, verified, gone []string, data []byte) {
	t.Helper()
	dev := pmem.Restore(img, nil)
	ctrl, _, err := kernel.Mount(dev, kernel.Options{}, true)
	if err != nil {
		t.Fatalf("%s: mount: %v", what, err)
	}
	if rep, err := kernel.Fsck(dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("%s: fsck after the repair: %v %v", what, rep, err)
	}
	r := libfs.New(ctrl, ctrl.RegisterApp(0, 0), libfs.Options{}).NewThread(0).(*libfs.Thread)
	for _, p := range verified {
		if _, err := r.Stat(p); err != nil {
			t.Fatalf("%s: verified path %s lost: %v", what, p, err)
		}
	}
	for _, p := range gone {
		if _, err := r.Stat(p); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("%s: removed path %s: %v, want it gone", what, p, err)
		}
	}
	fd, err := r.Open("/d/data")
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := make([]byte, len(data))
	if n, err := r.ReadAt(fd, got, 0); err != nil || n != len(got) || !bytes.Equal(got, data) {
		t.Fatalf("%s: /d/data holds other bytes than the turn wrote (n=%d, err=%v)", what, n, err)
	}
}
