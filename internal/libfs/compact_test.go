package libfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// churn creates and unlinks n files in dir, leaving n dead record slots.
func churn(t testing.TB, w *Thread, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s/churn-%04d", dir, i)
		if err := w.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Unlink(p); err != nil {
			t.Fatal(err)
		}
	}
}

func mustNames(t testing.TB, w *Thread, dir string) []string {
	t.Helper()
	names, err := w.Readdir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// logPages returns how many dentry-log pages dir's chains link on PM.
func logPages(t testing.TB, fs *FS, w *Thread, dir string) int {
	t.Helper()
	st, err := w.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, ok, _ := layout.ReadInode(fs.dev, fs.geo, st.Ino)
	if !ok {
		t.Fatalf("%s: inode %d unreadable", dir, st.Ino)
	}
	n := 0
	for ti := 0; ti < int(in.NTails); ti++ {
		for p := layout.TailHead(fs.dev, in.DataRoot, ti); p != 0; p = layout.NextPage(fs.dev, p) {
			n++
		}
	}
	return n
}

// TestReleaseCompactsChurnedDirectory: a mostly-dead log is rewritten at
// release, the live set and the retained auxiliary state survive it on
// both reacquire paths, and the result mounts clean. leases=true: the
// dormant lease is still there at the reopen (a hit). leases=false: a
// peer acquired and released /d in between, so the Reactivate CAS is lost
// and the reopen is a real Acquire that rebuilds from the rewritten log.
func TestReleaseCompactsChurnedDirectory(t *testing.T) {
	for _, leases := range []bool{true, false} {
		t.Run(fmt.Sprintf("leases=%v", leases), func(t *testing.T) {
			fs := newFS(t, BugsNone, nil)
			peer := New(fs.ctrl, fs.ctrl.RegisterApp(0, 0), Options{})
			w := th(t, fs)
			if err := w.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("keep-%03d-%s", i, "xxxxxxxxxxxxxxxxxxxx"[:i%20])
				if err := w.Create("/d/" + name); err != nil {
					t.Fatal(err)
				}
				want = append(want, name)
			}
			sort.Strings(want)
			churn(t, w, "/d", 3*CompactMinDeadSlots)
			before := logPages(t, fs, w, "/d")
			if err := fs.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
			if n := fs.Stats.DirCompactions.Load(); n != 1 {
				t.Fatalf("compactions = %d, want 1", n)
			}
			// /d was fresh, so the log pages the compaction dropped go back
			// to the pools: by now, or identical runs would allocate differently.
			if n := fs.dom.Pending(); n != 0 {
				t.Fatalf("%d retirements still pending after a compacting ReleaseAll", n)
			}
			if n := fs.Stats.DirCompactedSlots.Load(); n < int64(2*CompactMinDeadSlots) {
				t.Fatalf("compacted slots = %d, want most of the %d dead ones", n, 3*CompactMinDeadSlots)
			}
			if after := logPages(t, fs, w, "/d"); after >= before {
				t.Fatalf("log pages %d -> %d, want fewer", before, after)
			}
			hits, misses := fs.Stats.LeaseHits.Load(), fs.Stats.LeaseMisses.Load()
			if !leases {
				mustNames(t, th(t, peer), "/d")
				if err := peer.ReleaseAll(); err != nil {
					t.Fatal(err)
				}
			}
			if got := mustNames(t, w, "/d"); !reflect.DeepEqual(got, want) {
				t.Fatalf("names after compaction differ: %d vs %d", len(got), len(want))
			}

			// The retained aux state must point at the moved records: unlink
			// one, add one, and hand the directory back again.
			if err := w.Unlink("/d/" + want[7]); err != nil {
				t.Fatal(err)
			}
			if err := w.Create("/d/zz-new"); err != nil {
				t.Fatal(err)
			}
			want = append(append([]string(nil), want[:7]...), want[8:]...)
			want = append(want, "zz-new")
			if err := fs.ReleaseAll(); err != nil {
				t.Fatalf("release after post-compaction writes: %v", err)
			}
			if hit, miss := fs.Stats.LeaseHits.Load() > hits, fs.Stats.LeaseMisses.Load() > misses; hit != leases || miss == leases {
				t.Fatalf("the reacquire after compaction: lease hit %v, miss %v; want hit %v, miss %v", hit, miss, leases, !leases)
			}

			// A second application rebuilds from PM alone.
			if got := mustNames(t, th(t, peer), "/d"); !reflect.DeepEqual(got, want) {
				t.Fatalf("peer sees %d names, want %d", len(got), len(want))
			}
			if err := peer.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
			if rep, err := kernel.Fsck(fs.dev, kernel.Options{}); err != nil || !rep.Clean() {
				t.Fatalf("fsck after compaction: %v %v", rep, err)
			}
		})
	}
}

// TestCompactionSkippedBelowThreshold pins both halves of the trigger.
func TestCompactionSkippedBelowThreshold(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Mkdir("/few"); err != nil {
		t.Fatal(err)
	}
	churn(t, w, "/few", CompactMinDeadSlots-1) // mostly dead, but under a page of it
	if err := w.Mkdir("/full"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*CompactMinDeadSlots; i++ {
		if err := w.Create(fmt.Sprintf("/full/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	churn(t, w, "/full", 2*CompactMinDeadSlots) // a page of dead slots, but not most of the log
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if n := fs.Stats.DirCompactions.Load(); n != 0 {
		t.Fatalf("compactions = %d, want 0", n)
	}
}

// TestHandoffChurnAccounting: two applications alternate on one shared
// directory for 200 turns, each unlinking the peer's batch and creating
// its own (the first turn also churns the directory while it is still
// fresh). The log must stay bounded, and once both have handed every
// grant back no page may be left granted-but-unreferenced: free pages
// plus pages reachable from the inode table are the whole data region.
func TestHandoffChurnAccounting(t *testing.T) {
	const turns, static, batch = 200, 60, 16
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var fss [2]*FS
	var ws [2]*Thread
	for a := range fss {
		fss[a] = New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		ws[a] = fss[a].NewThread(a).(*Thread)
	}
	if err := ws[0].Mkdir("/h"); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < static; i++ {
		name := fmt.Sprintf("static-%03d", i)
		if err := ws[0].Create("/h/" + name); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}
	// Churn before the kernel has ever seen /h: the first release compacts
	// a log whose pages are all still app-granted, so every page it
	// unlinks must find its way back to the pool.
	churn(t, ws[0], "/h", 2*CompactMinDeadSlots)
	maxPages := 0
	for turn := 0; turn < turns; turn++ {
		a := turn % 2
		for i := 0; i < batch && turn > 0; i++ {
			name := fmt.Sprintf("b%d-%03d-%02d", 1-a, turn-1, i)
			if err := ws[a].Unlink("/h/" + name); err != nil {
				t.Fatalf("turn %d: %v", turn, err)
			}
			delete(want, name)
		}
		for i := 0; i < batch; i++ {
			name := fmt.Sprintf("b%d-%03d-%02d", a, turn, i)
			if err := ws[a].Create("/h/" + name); err != nil {
				t.Fatalf("turn %d: %v", turn, err)
			}
			want[name] = true
		}
		if n := logPages(t, fss[a], ws[a], "/h"); n > maxPages {
			maxPages = n
		}
		if err := fss[a].ReleaseAll(); err != nil {
			t.Fatalf("turn %d release: %v", turn, err)
		}
	}
	compactions := fss[0].Stats.DirCompactions.Load() + fss[1].Stats.DirCompactions.Load()
	if compactions < 5 {
		t.Fatalf("only %d compactions in %d turns", compactions, turns)
	}
	// Uncompacted, 200 turns of 16 appends are ~30 pages. Compacted, the
	// log holds the live records twice over at most, plus each tail's
	// append page.
	if maxPages > 8 {
		t.Fatalf("log grew to %d pages", maxPages)
	}
	got := mustNames(t, ws[0], "/h")
	if len(got) != len(want) {
		t.Fatalf("%d names, want %d", len(got), len(want))
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected name %q", n)
		}
	}
	if err := fss[0].ReleaseAll(); err != nil {
		t.Fatal(err)
	}

	for a := range fss {
		fss[a].dom.Barrier()
		fss[a].ReturnGrants()
	}
	for _, u := range ctrl.Usage() {
		if u.PagesOut != 0 {
			t.Fatalf("app %d still has %d pages granted after returning its pools: leaked by compaction", u.App, u.PagesOut)
		}
	}
	wantConserved(t, ctrl, dev)
	if rep, err := kernel.Fsck(dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", rep, err)
	}
}

// wantConserved fails the test unless free pages plus the pages reachable
// from the inode table are the whole data region: nothing leaked, nothing
// freed while in use. Every application must have returned its grants.
func wantConserved(t *testing.T, ctrl *kernel.Controller, dev *pmem.Device) {
	t.Helper()
	geo := ctrl.Geometry()
	reachable := 0
	for ino := uint64(1); ino < geo.InodeCap; ino++ {
		in, ok, _ := layout.ReadInode(dev, geo, ino)
		switch {
		case !ok:
		case in.Type == layout.TypeDir:
			reachable++ // tail-set page
			for ti := 0; ti < int(in.NTails); ti++ {
				for p := layout.TailHead(dev, in.DataRoot, ti); p != 0; p = layout.NextPage(dev, p) {
					reachable++
				}
			}
		case in.DataRoot != 0:
			reachable += len(layout.MapChainPages(dev, in.DataRoot))
			for _, b := range layout.WalkBlockMap(dev, in.DataRoot, layout.BlocksForSize(in.Size)) {
				if b != 0 {
					reachable++
				}
			}
		}
	}
	if data := int(geo.PageCount - geo.DataStart); ctrl.FreeCount()+reachable != data {
		t.Fatalf("free %d + inode-owned %d != %d data pages", ctrl.FreeCount(), reachable, data)
	}
}

// TestUnlinkOfCommittedFileFreesItsPages: a LibFS zeroes the inode record
// of a file it unlinks, so the kernel, verifying the removal, must find the
// file's pages without that record. It used to parse the record, fail, and
// free nothing until the next mount: 257 pages a round here. The file is
// unlinked by the application that still holds it, by one that holds only
// the directory, and by one that never held it at all.
func TestUnlinkOfCommittedFileFreesItsPages(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var fss [2]*FS
	var ws [2]*Thread
	for a := range fss {
		fss[a] = New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		ws[a] = fss[a].NewThread(a).(*Thread)
	}
	settle := func() {
		t.Helper()
		for a := range fss {
			if err := fss[a].ReleaseAll(); err != nil {
				t.Fatal(err)
			}
			fss[a].dom.Barrier()
			fss[a].ReturnGrants()
		}
	}
	if err := ws[0].Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	settle()
	free := 0 // once /d has its first log page
	chunk := make([]byte, 1<<20)
	for round := 0; round < 10; round++ {
		if err := ws[0].Create("/d/f"); err != nil {
			t.Fatal(err)
		}
		fd, err := ws[0].Open("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws[0].WriteAt(fd, chunk, 0); err != nil {
			t.Fatal(err)
		}
		if err := ws[0].Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := fss[0].ReleaseAll(); err != nil { // commits /d/f
			t.Fatal(err)
		}
		unlinker := ws[0]
		switch round % 3 {
		case 1: // holds the file again, and has overwritten a block, when it unlinks it
			if fd, err = ws[0].Open("/d/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := ws[0].WriteAt(fd, chunk[:4096], 0); err != nil {
				t.Fatal(err)
			}
			if err := ws[0].Close(fd); err != nil {
				t.Fatal(err)
			}
		case 2: // never held the file
			unlinker = ws[1]
		}
		if err := unlinker.Unlink("/d/f"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		settle()
		if got := ctrl.FreeCount(); round == 0 {
			free = got
		} else if got != free {
			t.Fatalf("round %d: %d pages free after the unlink was verified, %d after round 0", round, got, free)
		}
		wantConserved(t, ctrl, dev)
	}
	if rep, err := kernel.Fsck(dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", rep, err)
	}
}

// TestGrownCommittedFileLeaksNoPages: pages a LibFS adds to a committed
// file stay app-granted until the kernel next verifies the file, so when
// an unlink, or a shrink, drops them first they are the LibFS's to recycle
// — the kernel frees only the pages it verified. They used to stay granted
// to an app that had forgotten them: two pages a round when an empty
// committed file gets a block at 1 MiB (the block and its map page) and is
// unlinked, one when a file is shrunk to nothing after the same write (the
// block; the shrink also cuts a verified block, which the kernel frees).
func TestGrownCommittedFileLeaksNoPages(t *testing.T) {
	for _, cut := range []string{"unlink", "shrink"} {
		t.Run(cut, func(t *testing.T) {
			dev := pmem.New(16<<20, nil)
			ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{GrantPageBatch: 16})
			w := th(t, fs)
			settle := func() {
				t.Helper()
				if err := fs.ReleaseAll(); err != nil {
					t.Fatal(err)
				}
				fs.dom.Barrier()
				fs.ReturnGrants()
			}
			block := bytes.Repeat([]byte{0x5A}, layout.PageSize)
			for round := 0; round < 4; round++ {
				p := fmt.Sprintf("/f%d", round)
				if err := w.Create(p); err != nil {
					t.Fatal(err)
				}
				fd, err := w.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				if cut == "shrink" {
					if _, err := w.WriteAt(fd, block, 0); err != nil {
						t.Fatal(err)
					}
				}
				settle() // commits the file
				if _, err := w.WriteAt(fd, block, 1<<20); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(fd); err != nil {
					t.Fatal(err)
				}
				if cut == "unlink" {
					err = w.Unlink(p)
				} else {
					err = w.Truncate(p, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				settle()
				wantConserved(t, ctrl, dev)
			}
		})
	}
}

// TestCompactionVsLockFreeReaders races lock-free lookups and Readdir on
// a directory against a thread that keeps releasing it with compaction
// and reacquiring it — by lease hit, and, when a second application
// takes the directory in between, by lease miss and rebuild. Run under
// -race: the readers load entry refs the compaction rewrites.
func TestCompactionVsLockFreeReaders(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	peer := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w, pw := th(t, fs), th(t, peer)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	const keepers = 64
	for i := 0; i < keepers; i++ {
		if err := w.Create(fmt.Sprintf("/d/keep-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rd := fs.NewThread(1 + r).(*Thread)
			defer rd.Detach()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				if _, err := rd.Stat(fmt.Sprintf("/d/keep-%02d", rng.Intn(keepers))); err != nil {
					t.Errorf("reader %d: keeper vanished: %v", r, err)
					return
				}
				names, err := rd.Readdir("/d")
				if err != nil {
					t.Errorf("reader %d: readdir: %v", r, err)
					return
				}
				if len(names) < keepers {
					t.Errorf("reader %d: readdir saw %d names, want >= %d", r, len(names), keepers)
					return
				}
			}
		}(r)
	}

	deadline := time.Now().Add(2 * time.Second)
	rounds := 0
	for ; rounds < 12 && time.Now().Before(deadline); rounds++ {
		churn(t, w, "/d", 2*CompactMinDeadSlots)
		if err := fs.ReleaseAll(); err != nil {
			t.Fatalf("round %d release: %v", rounds, err)
		}
		if rounds%2 == 1 {
			// The peer takes the directory: our next write is a lease miss.
			if err := pw.Create(fmt.Sprintf("/d/peer-%02d", rounds)); err != nil {
				t.Fatalf("round %d peer create: %v", rounds, err)
			}
			if err := peer.ReleaseAll(); err != nil {
				t.Fatalf("round %d peer release: %v", rounds, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := fs.Stats.DirCompactions.Load(); n < int64(rounds) {
		t.Fatalf("%d compactions in %d rounds", n, rounds)
	}
	if fs.Stats.LeaseHits.Load() == 0 || fs.Stats.LeaseMisses.Load() == 0 {
		t.Fatalf("want both reacquire paths: hits %d, misses %d", fs.Stats.LeaseHits.Load(), fs.Stats.LeaseMisses.Load())
	}
}

// TestCompactionCrashStatesKeepLiveSet crashes a compacting release at
// both fences inside the compaction and at the swap killpoint between
// them, under every corner of the dirty-line space plus seeded samples.
// Every image must mount, be fsck-clean after repair, and list exactly
// the pre-compaction live set: the old chain or the new one, never a
// mixture.
func TestCompactionCrashStatesKeepLiveSet(t *testing.T) {
	dev := pmem.New(1<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	var imgs [][]byte
	compacting := false
	capture := func() {
		if !compacting {
			return // a kernel fence of the release protocol
		}
		one := func(off int64, alone bool) pmem.CrashPolicy {
			return func(o int64, versions int) int {
				if (o == off) == alone {
					return versions
				}
				return 0
			}
		}
		imgs = append(imgs, dev.CrashImage(pmem.CrashDropAll), dev.CrashImage(pmem.CrashPersistAll))
		for _, s := range dev.DirtyLineStates() {
			imgs = append(imgs, dev.CrashImage(one(s.Off, true)), dev.CrashImage(one(s.Off, false)))
		}
		for i := 0; i < 8; i++ {
			imgs = append(imgs, dev.CrashImage(pmem.CrashRandom(int64(len(imgs)))))
		}
	}
	hooks := &Hooks{DirCompaction: func(begin bool) { compacting = begin }}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Hooks: hooks, GrantPageBatch: 16, GrantInoBatch: 32})
	w := th(t, fs)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 40; i++ {
		// Multi-line records, so a torn copy is expressible.
		name := fmt.Sprintf("keep-%02d-0123456789-0123456789-0123456789-0123456789-0123456789", i)
		if err := w.Create("/d/" + name); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	if err := fs.ReleaseAll(); err != nil { // verified: the live set is now durable
		t.Fatal(err)
	}
	churn(t, w, "/d", CompactMinDeadSlots+8)

	dev.EnableTracking()
	dev.SetFenceObserver(capture)
	pmem.ArmKillpoint("libfs.compact.swap", 1, func(string) { capture() })
	err = fs.ReleaseAll()
	pmem.DisarmKillpoint()
	dev.SetFenceObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.DirCompactions.Load() != 1 {
		t.Fatal("the churned directory was not compacted")
	}
	if len(imgs) < 3*10 {
		t.Fatalf("captured only %d images over two fences and the killpoint", len(imgs))
	}
	for i, img := range imgs {
		rdev := pmem.Restore(img, nil)
		rctrl, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
		if err != nil {
			t.Fatalf("image %d: mount: %v", i, err)
		}
		if rep.CorruptDentries != 0 {
			t.Fatalf("image %d: torn dentry: %s", i, rep)
		}
		if rep2, err := kernel.Fsck(rdev, kernel.Options{}); err != nil || !rep2.Clean() {
			t.Fatalf("image %d: fsck after repair: %v %v", i, rep2, err)
		}
		r := th(t, New(rctrl, rctrl.RegisterApp(0, 0), Options{}))
		if got := mustNames(t, r, "/d"); !reflect.DeepEqual(got, want) {
			t.Fatalf("image %d: %d names after recovery, want the %d pre-compaction ones", i, len(got), len(want))
		}
	}
}

// TestReleaseAllSpanShowsCompaction: a traced ReleaseAll records one
// release span carrying a dir-compact event for the rewritten directory.
func TestReleaseAllSpanShowsCompaction(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	tr := span.New(64, 1)
	tr.SetEnabled(true)
	fs.SetObservability(tr, nil)
	w := th(t, fs)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	churn(t, w, "/d", 2*CompactMinDeadSlots)
	st, err := w.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Snapshot() {
		for _, ev := range sp.Events {
			if ev.Kind == telemetry.SpanEvDirCompact {
				if sp.Op.String() != "release" || uint64(ev.A) != st.Ino || ev.B <= 0 {
					t.Fatalf("dir-compact event %+v on span %s", ev, sp)
				}
				return
			}
		}
	}
	t.Fatal("no release span carries a dir-compact event")
}
