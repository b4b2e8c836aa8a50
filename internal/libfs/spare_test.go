package libfs

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/race"
)

// TestSpareDirIsClean: a directory built on the state of one removed before
// it shows nothing of that one. /a grows its index and its log, and leaves
// every record slot dead, fresh or committed by a release; /b, made after
// /a's grace period, lists no name, is offered no dead slot of /a's log,
// appends into its own tail set, and survives a release and a recovery
// fsck-clean.
func TestSpareDirIsClean(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	// A sync.Pool hands a Get what a Put on the same processor left, and
	// keeps it while the collector is off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, committed := range []bool{false, true} {
		t.Run(fmt.Sprintf("committed=%v", committed), func(t *testing.T) {
			testSpareDirIsClean(t, committed)
		})
	}
}

func testSpareDirIsClean(t *testing.T, committed bool) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Mkdir("/a"))
	for i := range 300 {
		must(w.Create(fmt.Sprintf("/a/f%03d", i)))
	}
	for i := range 300 {
		must(w.Unlink(fmt.Sprintf("/a/f%03d", i)))
	}
	if committed {
		must(fs.ReleaseAll())
	}
	a, err := w.resolve("/a")
	must(err)
	old := a.dir.Load()
	must(w.Rmdir("/a"))
	fs.dom.Barrier()

	must(w.Mkdir("/b"))
	b, err := w.resolve("/b")
	must(err)
	ds := b.dir.Load()
	if ds != old {
		t.Fatal("/b was not built on /a's state")
	}
	if names, err := w.Readdir("/b"); err != nil || len(names) != 0 {
		t.Fatalf("Readdir(/b) = %v, %v; want it empty", names, err)
	}
	if st, err := w.Stat("/b"); err != nil || st.Size != 0 || !st.Dir {
		t.Fatalf("Stat(/b) = %+v, %v", st, err)
	}
	in, _, _ := layout.ReadInode(fs.dev, fs.geo, b.ino)
	if ds.tailset != in.DataRoot || ds.ht.Len() != 0 || len(ds.unverified) != 0 {
		t.Fatalf("/b's state: tail set %d (inode says %d), %d names, %d unverified pages",
			ds.tailset, in.DataRoot, ds.ht.Len(), len(ds.unverified))
	}
	for c, s := range ds.dead {
		if len(s) != 0 {
			t.Fatalf("/b offers %d dead slots of /a's log of record class %d", len(s), c)
		}
	}
	for i := range ds.tails {
		if tc := &ds.tails[i]; tc.page != 0 || tc.off != 0 || tc.slots != 0 || tc.linked.Load() {
			t.Fatalf("/b's tail %d starts at page %d offset %d, %d slots", i, tc.page, tc.off, tc.slots)
		}
	}

	fs.dev.EnableTracking()
	for i := range 3 {
		must(w.Create(fmt.Sprintf("/b/g%d", i)))
	}
	var pages []uint64
	for _, chain := range fs.dirLogPages(ds) {
		pages = append(pages, chain...)
	}
	ds.ht.Range(func(name string, _, ref uint64) bool {
		if !slices.Contains(pages, layout.DentryRef(ref).Page()) {
			t.Errorf("%s's record is on page %d, not in /b's log %v", name, layout.DentryRef(ref).Page(), pages)
		}
		return true
	})

	must(fs.ReleaseAll())
	if rep, err := kernel.Fsck(fs.dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck after ReleaseAll: %v %v", rep, err)
	}
	rdev := pmem.Restore(fs.dev.CrashImage(pmem.CrashDropAll), nil)
	rctrl, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
	if err != nil || !rep.Clean() {
		t.Fatalf("recovery: %v %v", rep, err)
	}
	r := th(t, New(rctrl, rctrl.RegisterApp(0, 0), Options{}))
	if got := mustNames(t, r, "/b"); !slices.Equal(got, []string{"g0", "g1", "g2"}) {
		t.Fatalf("/b after recovery: %v", got)
	}
}

// TestSpareDirVsLockFreeReaders races lock-free lookups and Stats against a
// writer that removes /a and builds /b on its state, over and over. A
// reader holding /a's minode never finds /b's name in it, and no reader
// inside a read-side section meets an entry recycled under it (htable
// panics if one does). Run under -race -count=10 at GOMAXPROCS 1, 2 and 4.
func TestSpareDirVsLockFreeReaders(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	a, err := w.resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	var removed atomic.Pointer[minode] // the latest /a, once it is removed
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rt := fs.NewThread(r + 1).(*Thread)
			defer rt.Detach()
			for !stop.Load() {
				if mi := removed.Load(); mi != nil {
					if _, _, ok, err := fs.lookupInDir(rt, mi, "y"); ok || err != nil {
						t.Errorf("a removed /a finds /b's name: %v, %v", ok, err)
						return
					}
				}
				_, _ = rt.Stat("/a/x")
				_, _ = rt.Stat("/b/y")
				_, _ = rt.Readdir("/b")
			}
		}()
	}
	reused, seen := 0, map[*dirState]bool{}
	for i := 0; i < 300 && !t.Failed(); i++ {
		seen[a.dir.Load()] = true
		ops := []error{w.Create("/a/x"), w.Unlink("/a/x"), w.Rmdir("/a")}
		removed.Store(a)
		fs.dom.Synchronize()
		ops = append(ops, w.Mkdir("/b"))
		b, err := w.resolve("/b")
		ops = append(ops, err)
		if err == nil && seen[b.dir.Load()] {
			reused++
		}
		ops = append(ops, w.Create("/b/y"), w.Unlink("/b/y"), w.Rmdir("/b"), w.Mkdir("/a"))
		fs.dom.Synchronize()
		for _, err := range ops {
			if err != nil {
				t.Fatal(err)
			}
		}
		if a, err = w.resolve("/a"); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	readers.Wait()
	t.Logf("%d of 300 rounds built /b on a removed /a's state", reused)
}

// TestCreateBatchLosesToRmdir: a CreateBatch that loaded /a's state before
// /a was removed, and /b built on that state, locks its bucket only
// afterwards. The batch fails with ErrNotExist and its name shows up in
// neither the table /b now owns nor /b's log, before or after a recovery.
func TestCreateBatchLosesToRmdir(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hooks := &Hooks{}
	fs := newFS(t, BugsNone, hooks)
	fs.dev.EnableTracking()
	w, o := th(t, fs), fs.NewThread(1).(*Thread)
	if err := w.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	a, err := w.resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	old := a.dir.Load()
	var hookErr error
	hooks.CreateBatchBeforeLock = func() {
		hooks.CreateBatchBeforeLock = nil
		if hookErr = o.Rmdir("/a"); hookErr != nil {
			return
		}
		fs.dom.Barrier()
		hookErr = o.Mkdir("/b")
	}
	n, err := w.CreateBatch("/a", []string{"x"})
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if n != 0 || !errors.Is(err, fsapi.ErrNotExist) {
		t.Errorf("CreateBatch into the removed /a = %d, %v; want 0, %v", n, err, fsapi.ErrNotExist)
	}
	b, err := w.resolve("/b")
	if err != nil {
		t.Fatal(err)
	}
	if b.dir.Load() != old {
		t.Fatal("/b was not built on /a's state")
	}
	if got := mustNames(t, w, "/b"); len(got) != 0 {
		t.Fatalf("/b lists %v", got)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if rep, err := kernel.Fsck(fs.dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck after ReleaseAll: %v %v", rep, err)
	}
	rdev := pmem.Restore(fs.dev.CrashImage(pmem.CrashDropAll), nil)
	rctrl, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
	if err != nil || !rep.Clean() {
		t.Fatalf("recovery: %v %v", rep, err)
	}
	r := th(t, New(rctrl, rctrl.RegisterApp(0, 0), Options{}))
	if got := mustNames(t, r, "/b"); len(got) != 0 {
		t.Fatalf("/b after recovery lists %v", got)
	}
}
