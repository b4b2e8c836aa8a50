package libfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// churn creates n files in dir and then unlinks them all. In a directory
// with no dead slot of their length the creates append, leaving n dead
// record slots; unlinking each name before the next create would leave
// one, filled and freed again n times.
func churn(t testing.TB, w *Thread, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Create(fmt.Sprintf("%s/churn-%04d", dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := w.Unlink(fmt.Sprintf("%s/churn-%04d", dir, i)); err != nil {
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
			peer := New(kctl(fs), kctl(fs).RegisterApp(0, 0), Options{})
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
			// one, add some, and hand the directory back again.
			if err := w.Unlink("/d/" + want[7]); err != nil {
				t.Fatal(err)
			}
			want = append(append([]string(nil), want[:7]...), want[8:]...)
			// A create fills a dead slot the compaction kept, on a tail's
			// append page, or appends — never a slot on a page it retired.
			// These names are as long as the churn's, so they take every
			// listed slot of that length before they append.
			d, err := w.resolve("/d")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3*CompactMinDeadSlots; i++ {
				name := fmt.Sprintf("zz-new-%03d", i)
				if err := w.Create("/d/" + name); err != nil {
					t.Fatal(err)
				}
				want = append(want, name)
				_, ref, _, _ := fs.lookupInDir(w, d, name)
				if !slices.Contains(slices.Concat(fs.dirLogPages(d.dir.Load())...), layout.DentryRef(ref).Page()) {
					t.Fatalf("%s landed on log page %d, which the compaction retired", name, layout.DentryRef(ref).Page())
				}
			}
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

// TestCompactionSplicesInPlace: a compacting release unlinks the dead
// runs of a log with one 8-byte store each under one fence, and moves no
// record. /d's tail holds six pages, live records on the second and the
// fifth only: the run at the head goes by the tail-head store, the run
// behind the second page by its next pointer, and the live entries keep
// their refs and their pages' bytes. /s keeps every 100th of its names,
// one or two a page: each page holds a survivor, so all six stay. The
// device's observer sees the splice: at the swap site and at the next
// fence the only dirty lines are the two link words, one store each, the
// device flushes two lines in between, and that fence's barrier is the
// release's only LibFS one.
func TestCompactionSplicesInPlace(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	// 1 000 records of one length, 170 a page: six pages, the last short.
	fill := func(dir string, keep func(i int) bool) []string {
		t.Helper()
		if err := w.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for i := 0; i < 1000; i++ {
			if err := w.Create(fmt.Sprintf("%s/f-%04d", dir, i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("f-%04d", i)
			if keep(i) {
				kept = append(kept, name)
			} else if err := w.Unlink(dir + "/" + name); err != nil {
				t.Fatal(err)
			}
		}
		return kept
	}
	live := fill("/d", func(i int) bool { return i == 250 || i == 700 })
	scattered := fill("/s", func(i int) bool { return i%100 == 0 })

	d, err := w.resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	ds := d.dir.Load()
	chain := fs.dirLogPages(ds)[0]
	if len(chain) != 6 {
		t.Fatalf("/d's log has %d pages, want 6", len(chain))
	}
	refs := map[string]uint64{}
	for _, name := range live {
		_, refs[name], _, _ = fs.lookupInDir(w, d, name)
	}
	if pages := []uint64{layout.DentryRef(refs[live[0]]).Page(), layout.DentryRef(refs[live[1]]).Page()}; !slices.Equal(pages, []uint64{chain[1], chain[4]}) {
		t.Fatalf("live records on pages %v, want the 2nd and 5th of %v", pages, chain)
	}
	body := func(p uint64) []byte {
		b := make([]byte, layout.LogDataSize)
		fs.dev.Read(int64(p*layout.PageSize), b)
		return b
	}
	kept := []uint64{chain[1], chain[4], chain[5]}
	var bodies [][]byte
	for _, p := range kept {
		bodies = append(bodies, body(p))
	}

	dev := fs.dev
	var sites []string
	var dirty [][]pmem.LineState // at the swap site and at its fence
	var flushes [2]int64
	dev.EnableTracking()
	dev.SetObserver(func(site string) {
		sites = append(sites, site)
		if n := len(dirty); site == "libfs.compact.swap" || site == pmem.FenceSite && n == 1 {
			dirty = append(dirty, dev.DirtyLineStates())
			flushes[n] = dev.Stats.Flushes.Load()
		}
	})
	err = fs.ReleaseAll()
	dev.SetObserver(nil)
	dev.DisableTracking()
	if err != nil {
		t.Fatal(err)
	}
	if n := fs.Stats.DirCompactions.Load(); n != 1 {
		t.Fatalf("compactions = %d, want 1: /d spliced, /s left as it is", n)
	}
	// The splice's barrier is the release's only LibFS persist point; the
	// last fence is the crossing's.
	if want := []string{"libfs.compact.swap", "pmem.batch.barrier", pmem.FenceSite, pmem.FenceSite}; !slices.Equal(sites, want) {
		t.Fatalf("the release reached %q, want %q", sites, want)
	}
	links := []pmem.LineState{
		{Off: layout.TailHeadOff(ds.tailset, 0) &^ (pmem.LineSize - 1), Versions: 1},
		{Off: int64(chain[1]*layout.PageSize+layout.NextPtrOff) &^ (pmem.LineSize - 1), Versions: 1},
	}
	slices.SortFunc(links, func(a, b pmem.LineState) int { return int(a.Off - b.Off) })
	if want := [][]pmem.LineState{links, links}; !reflect.DeepEqual(dirty, want) {
		t.Fatalf("dirty lines at the swap and at its fence %v, want the two link words' %v, one store each", dirty, links)
	}
	if n := flushes[1] - flushes[0]; n != 2 {
		t.Fatalf("from the swap to its fence the device flushed %d lines, want 2", n)
	}
	if got := fs.dirLogPages(ds)[0]; !slices.Equal(got, kept) {
		t.Fatalf("/d's log after the release %v, want %v", got, kept)
	}
	if head := layout.TailHead(fs.dev, ds.tailset, 0); head != chain[1] {
		t.Fatalf("tail head %d, want %d: the head run is spliced by the tail-head store", head, chain[1])
	}
	for i, p := range kept {
		if !bytes.Equal(body(p), bodies[i]) {
			t.Fatalf("log page %d's records changed", p)
		}
	}
	for _, name := range live {
		if _, ref, ok, _ := fs.lookupInDir(w, d, name); !ok || ref != refs[name] {
			t.Fatalf("%s: ref %#x -> %#x: a compaction moves no record", name, refs[name], ref)
		}
	}
	if n := logPages(t, fs, w, "/s"); n != 6 {
		t.Fatalf("/s has %d log pages, want all 6: each holds a survivor", n)
	}

	peer := th(t, New(kctl(fs), kctl(fs).RegisterApp(0, 0), Options{}))
	for dir, want := range map[string][]string{"/d": live, "/s": scattered} {
		if got := mustNames(t, peer, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("a peer lists %d names in %s, want %d", len(got), dir, len(want))
		}
	}
}

// TestHandoffChurnAccounting: two applications alternate on one shared
// directory for 200 turns, each unlinking the peer's batch and creating
// its own, with names of two record lengths. Each create fills a slot the
// peer's unlinks left, so once both have had a turn the log stops growing:
// no release parses more than the live entries and a batch of dead slots,
// the log links no new page, and nothing is compacted. Before the turns
// the directory is churned while still fresh, so the first release
// compacts a log whose pages are all app-granted; once both have handed
// every grant back no page may be left granted-but-unreferenced: free
// pages plus pages reachable from the inode table are the whole data
// region.
func TestHandoffChurnAccounting(t *testing.T) {
	// static is more records than a log page holds, so the static names —
	// as long as the churn's — fill every dead slot the compaction leaves
	// on the append page.
	const turns, static, batch, warm = 200, 130, 16, 2
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
	// Churn before the kernel has ever seen /h: the first release compacts
	// a log whose pages are all still app-granted, so every page it
	// unlinks must find its way back to the pool.
	churn(t, ws[0], "/h", 2*CompactMinDeadSlots)
	if err := fss[0].ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if n := fss[0].Stats.DirCompactions.Load(); n != 1 {
		t.Fatalf("the churned release ran %d compactions, want 1", n)
	}
	want := map[string]bool{}
	for i := 0; i < static; i++ {
		name := fmt.Sprintf("static-%03d", i)
		if err := ws[0].Create("/h/" + name); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}
	// Half of each batch has short names and half long ones: a create
	// fills only a slot of its own record length.
	batchName := func(a, turn, i int) string {
		if i%2 == 0 {
			return fmt.Sprintf("b%d-%03d-%02d", a, turn, i)
		}
		return fmt.Sprintf("b%d-%03d-%02d-0123456789-0123456789", a, turn, i)
	}
	vs := ctrl.VerifierStats()
	pages := 0
	for turn := 0; turn < turns; turn++ {
		a := turn % 2
		for i := 0; i < batch && turn > 0; i++ {
			name := batchName(1-a, turn-1, i)
			if err := ws[a].Unlink("/h/" + name); err != nil {
				t.Fatalf("turn %d: %v", turn, err)
			}
			delete(want, name)
		}
		for i := 0; i < batch; i++ {
			name := batchName(a, turn, i)
			if err := ws[a].Create("/h/" + name); err != nil {
				t.Fatalf("turn %d: %v", turn, err)
			}
			want[name] = true
		}
		n := logPages(t, fss[a], ws[a], "/h")
		parsed := vs.Dentries.Load()
		if err := fss[a].ReleaseAll(); err != nil {
			t.Fatalf("turn %d release: %v", turn, err)
		}
		parsed = vs.Dentries.Load() - parsed
		if turn < warm {
			pages = n
			continue
		}
		// The root's one entry, /h, is parsed too.
		if live := len(want) + 1; parsed > int64(live+batch) {
			t.Fatalf("turn %d: the release parsed %d records for %d live entries", turn, parsed, live)
		}
		if n > pages {
			t.Fatalf("turn %d: the log grew from %d to %d pages", turn, pages, n)
		}
	}
	if n := fss[0].Stats.DirCompactions.Load() + fss[1].Stats.DirCompactions.Load(); n != 1 {
		t.Fatalf("%d compactions after the churned release, want none", n-1)
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
// a directory against a thread that keeps churning it, releasing it and
// reacquiring it — by lease hit, and, when a second application takes the
// directory in between, by lease miss and rebuild. Run under -race: the
// readers run while a release splices the log under them and while a
// lease miss rebuilds the table.
//
// Only rounds 0-5 splice. An odd round's peer create has no dead slot of
// its record length and finds the verified tail page more than half full,
// so it links a page of its own, which its live record pins. From round 6
// on the log is the keepers' page, the pages peer-01, peer-03 and peer-05
// pinned, and the append page: every page but the last holds a live
// record, and the churn fits the dead slots they hold.
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
	var spliced, want []bool
	for ; rounds < 12 && time.Now().Before(deadline); rounds++ {
		churn(t, w, "/d", 2*CompactMinDeadSlots)
		n := fs.Stats.DirCompactions.Load()
		if err := fs.ReleaseAll(); err != nil {
			t.Fatalf("round %d release: %v", rounds, err)
		}
		spliced = append(spliced, fs.Stats.DirCompactions.Load() > n)
		want = append(want, rounds < 6)
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
	if !slices.Equal(spliced, want) {
		t.Fatalf("rounds that spliced %v, want %v", spliced, want)
	}
	if fs.Stats.LeaseHits.Load() == 0 || fs.Stats.LeaseMisses.Load() == 0 {
		t.Fatalf("want both reacquire paths: hits %d, misses %d", fs.Stats.LeaseHits.Load(), fs.Stats.LeaseMisses.Load())
	}
}

// TestCompactionCrashStatesKeepLiveSet crashes a compacting release at
// the swap killpoint, after the splice stores, and at the compaction's
// one fence, under every corner of the dirty-line space plus seeded
// samples. The log splices two runs: the dead page at the tail's head and
// a dead page behind the keepers' one, so the images hold each store
// alone, both and neither. Every image must mount, be fsck-clean after
// repair, and list exactly the pre-compaction live set.
func TestCompactionCrashStatesKeepLiveSet(t *testing.T) {
	dev := pmem.New(1<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	var want []string // the pre-compaction live set
	images, compacting := 0, false
	// capture judges each image as it takes it.
	capture := func() {
		corners, _ := dev.CrashImages(dev.DirtyLineStates(), pmem.CrashDropAll, 0, int64(images))
		for _, img := range corners {
			i := images
			images++
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
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{GrantPageBatch: 16, GrantInoBatch: 32})
	w := th(t, fs)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// The head page: a page full of records of a length no later name has.
	var head []string
	for off := 0; layout.DentryFits(off, 19); off += layout.DentryRecLen(19) {
		head = append(head, fmt.Sprintf("head-%03d-0123456789", len(head)))
		if err := w.Create("/d/" + head[len(head)-1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		// Multi-line records, so a torn record is expressible.
		name := fmt.Sprintf("keep-%02d-0123456789-0123456789-0123456789-0123456789-0123456789", i)
		if err := w.Create("/d/" + name); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	if err := fs.ReleaseAll(); err != nil { // verified: the live set is now durable
		t.Fatal(err)
	}
	for _, name := range head {
		if err := w.Unlink("/d/" + name); err != nil {
			t.Fatal(err)
		}
	}
	churn(t, w, "/d", CompactMinDeadSlots+8)
	if n := logPages(t, fs, w, "/d"); n != 4 {
		t.Fatalf("%d log pages before the release, want 4: head, keepers, churn, append", n)
	}

	dev.EnableTracking()
	// The swap site and the device's next fence, the splice's own; the
	// release's other fences are the kernel's.
	dev.SetObserver(func(site string) {
		if site == "libfs.compact.swap" || site == pmem.FenceSite && compacting {
			compacting = site != pmem.FenceSite
			capture()
		}
	})
	err = fs.ReleaseAll()
	dev.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats.DirCompactions.Load() != 1 {
		t.Fatal("the churned directory was not compacted")
	}
	if n := logPages(t, fs, w, "/d"); n != 2 {
		t.Fatalf("%d log pages after the release, want 2: keepers, append", n)
	}
	// Per point: each of the two splice lines alone, both and neither.
	if images < 2*4 {
		t.Fatalf("captured only %d images at the fence and the killpoint", images)
	}
}

// TestReleaseAllSpanShowsCompaction: a traced ReleaseAll records one
// release span carrying a dir-compact event for the rewritten directory.
func TestReleaseAllSpanShowsCompaction(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	tr := span.New(64, 1)
	tr.SetEnabled(true)
	fs.SetTracer(tr)
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
