package libfs

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
)

// peek returns the state d publishes, under no guard: for a test that
// compares states, or reads one no other thread is using.
func (d *dirRef) peek() *dirState { return d.p.Load() }

// len is how many spares the stack holds.
func (s *spareDirs) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirs)
}

// TestSpareDirIsClean: a directory built on the state of one removed before
// it shows nothing of that one. /a grows its index and its log, and leaves
// every record slot dead, fresh or committed by a release; /b, made after
// /a's grace period, lists no name, is offered no dead slot of /a's log,
// appends into its own tail set, and survives a release and a recovery
// fsck-clean.
func TestSpareDirIsClean(t *testing.T) {
	for _, committed := range []bool{false, true} {
		t.Run(fmt.Sprintf("committed=%v", committed), func(t *testing.T) {
			testSpareDirIsClean(t, committed)
		})
	}
}

func testSpareDirIsClean(t *testing.T, committed bool) {
	fs := newFS(t, BugsNone)
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
	old := a.dir.peek()
	must(w.Rmdir("/a"))
	fs.dom.Barrier()

	must(w.Mkdir("/b"))
	b, err := w.resolve("/b")
	must(err)
	ds := b.dir.peek()
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
	fs := newFS(t, BugsNone)
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
		seen[a.dir.peek()] = true
		ops := []error{w.Create("/a/x"), w.Unlink("/a/x"), w.Rmdir("/a")}
		removed.Store(a)
		fs.dom.Synchronize()
		ops = append(ops, w.Mkdir("/b"))
		b, err := w.resolve("/b")
		ops = append(ops, err)
		if err == nil && seen[b.dir.peek()] {
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
	fs := newFS(t, BugsNone)
	fs.dev.EnableTracking()
	w, o := th(t, fs), fs.NewThread(1).(*Thread)
	if err := w.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	a, err := w.resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	old := a.dir.peek()
	// The window runs the rmdir and the mkdir once; the fences they issue
	// reach the same observer and pass through.
	var hookErr error
	var armed atomic.Bool
	armed.Store(true)
	fs.dev.SetObserver(pmem.OnSite(siteDirStateBeforeLock, func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		if hookErr = o.Rmdir("/a"); hookErr != nil {
			return
		}
		fs.dom.Barrier()
		hookErr = o.Mkdir("/b")
	}))
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
	if b.dir.peek() != old {
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

// TestCreateBatchLosesToReleaseAll: a CreateBatch into /a that a ReleaseAll
// overtakes between loading /a's state and locking its bucket takes /a back
// before it writes. The name it acknowledges is listed, the next release
// hands /a back with it, and fsck and a recovery find it. A batch that
// checked only that the state was still /a's wrote into the released /a:
// /a stayed released, fsck found a dangling entry, and a recovery lost x.
func TestCreateBatchLosesToReleaseAll(t *testing.T) {
	fs := newFS(t, BugsNone)
	fs.dev.EnableTracking()
	w := th(t, fs)
	if err := w.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	a, err := w.resolve("/a")
	if err != nil {
		t.Fatal(err)
	}
	var hookErr error
	var armed atomic.Bool
	armed.Store(true)
	fs.dev.SetObserver(pmem.OnSite(siteDirStateBeforeLock, func() {
		if armed.CompareAndSwap(true, false) {
			hookErr = fs.ReleaseAll()
		}
	}))
	n, err := w.CreateBatch("/a", []string{"x"})
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if n != 1 || err != nil {
		t.Fatalf("CreateBatch(/a, x) = %d, %v; want 1, nil", n, err)
	}
	if a.released.Load() {
		t.Fatal("the batch wrote into /a and left it released")
	}
	if got := mustNames(t, w, "/a"); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("/a lists %v", got)
	}
	if err := fs.ReleaseAll(); err != nil || !a.released.Load() {
		t.Fatalf("the release after the batch: %v, /a released %v", err, a.released.Load())
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
	if got := mustNames(t, r, "/a"); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("/a after recovery lists %v", got)
	}
}

// TestRmdirVsCreate: a create into a directory that an rmdir has found
// empty waits for the rmdir, then fails; the rmdir succeeds. An rmdir that
// looked at emptiness before it took the victim's bucket locks let both
// succeed, and the new name sat in the removed directory's recycled log.
func TestRmdirVsCreate(t *testing.T) {
	fs := newFS(t, BugsNone)
	w, o := th(t, fs), fs.NewThread(1).(*Thread)
	defer o.Detach()
	if err := w.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	created := make(chan error, 1)
	var armed atomic.Bool
	armed.Store(true)
	fs.dev.SetObserver(pmem.OnSite(siteRmdirFoundEmpty, func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		go func() { created <- o.Create("/a/x") }()
		// Give the create the time it needs to finish, unless it waits for
		// the rmdir.
		select {
		case err := <-created:
			created <- err
		case <-time.After(100 * time.Millisecond):
		}
	}))
	rmErr := w.Rmdir("/a")
	crErr := <-created
	if rmErr != nil || !errors.Is(crErr, fsapi.ErrNotExist) {
		t.Fatalf("Rmdir(/a) = %v and Create(/a/x) = %v; want nil and %v", rmErr, crErr, fsapi.ErrNotExist)
	}
	if names := mustNames(t, w, "/"); len(names) != 0 {
		t.Fatalf("/ lists %v", names)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if rep, err := kernel.Fsck(fs.dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck after ReleaseAll: %v %v", rep, err)
	}
}

// dirStateDiff lists, one per line, where got differs from want in what a
// build from the log decides: the names with their inodes and record refs,
// the dead slots, the tail cursors and the tail-set page.
func dirStateDiff(got, want *dirState) string {
	var b strings.Builder
	entries := func(ds *dirState) map[string][2]uint64 {
		m := map[string][2]uint64{}
		ds.ht.Range(func(name string, ino, ref uint64) bool {
			m[name] = [2]uint64{ino, ref}
			return true
		})
		return m
	}
	if g, w := entries(got), entries(want); !reflect.DeepEqual(g, w) || got.ht.Len() != want.ht.Len() {
		fmt.Fprintf(&b, "\n  %d entries, want %d; equal %v", got.ht.Len(), want.ht.Len(), reflect.DeepEqual(g, w))
	}
	for c := range max(len(got.dead), len(want.dead)) {
		var g, w []layout.DentryRef
		if c < len(got.dead) {
			g = got.dead[c]
		}
		if c < len(want.dead) {
			w = want.dead[c]
		}
		if !slices.Equal(g, w) {
			fmt.Fprintf(&b, "\n  dead slots of class %d: %v, want %v", c, g, w)
		}
	}
	if len(got.tails) != len(want.tails) {
		fmt.Fprintf(&b, "\n  %d tails, want %d", len(got.tails), len(want.tails))
	}
	for i := range min(len(got.tails), len(want.tails)) {
		g, w := &got.tails[i], &want.tails[i]
		if g.page != w.page || g.off != w.off || g.slots != w.slots || g.linked.Load() != w.linked.Load() {
			fmt.Fprintf(&b, "\n  tail %d at page %d offset %d, %d slots; want %d, %d, %d", i, g.page, g.off, g.slots, w.page, w.off, w.slots)
		}
	}
	if got.tailset != want.tailset || len(got.unverified) != 0 || len(want.unverified) != 0 {
		fmt.Fprintf(&b, "\n  tail set %d, want %d; unverified %v and %v", got.tailset, want.tailset, got.unverified, want.unverified)
	}
	return b.String()
}

// TestRebuildOntoSpareEqualsFreshBuild: a directory rebuilt into a spare
// state, one left by a larger directory and one left by a smaller, is the
// state a build into a new one makes: the same names, inodes and refs, the
// same dead slots and the same tail cursors.
func TestRebuildOntoSpareEqualsFreshBuild(t *testing.T) {
	for _, spareNames := range []int{600, 3} {
		t.Run(fmt.Sprintf("spare of %d names", spareNames), func(t *testing.T) {
			fs := newFS(t, BugsNone)
			ws := []*Thread{th(t, fs), fs.NewThread(1).(*Thread), fs.NewThread(2).(*Thread)}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			// /d's log spreads over the tails, a third of it dead.
			must(ws[0].Mkdir("/d"))
			for i := range 200 {
				must(ws[i%3].Create(fmt.Sprintf("/d/f%03d", i)))
			}
			for i := 0; i < 200; i += 3 {
				must(ws[i%2].Unlink(fmt.Sprintf("/d/f%03d", i)))
			}
			must(ws[0].Mkdir("/s"))
			for i := range spareNames {
				must(ws[0].Create(fmt.Sprintf("/s/g%03d", i)))
			}
			for i := range spareNames {
				must(ws[0].Unlink(fmt.Sprintf("/s/g%03d", i)))
			}
			must(fs.ReleaseAll())
			d, err := ws[0].resolve("/d")
			must(err)
			in, _, _ := layout.ReadInode(fs.dev, fs.geo, d.ino)

			fs.spareDirs.dirs = nil
			must(ws[0].Rmdir("/s"))
			fs.dom.Barrier()
			if fs.spareDirs.len() != 1 {
				t.Fatalf("%d spares, want /s's", fs.spareDirs.len())
			}
			spare := fs.spareDirs.dirs[0]
			d.lock.Lock()
			err = fs.build(d, d.mapping.Load(), &in)
			d.lock.Unlock()
			must(err)
			if d.dir.peek() != spare {
				t.Fatal("/d was not rebuilt into /s's state")
			}

			fs.dom.Barrier()
			fs.spareDirs.dirs = nil
			fresh := &minode{ino: d.ino, typ: layout.TypeDir}
			must(fs.build(fresh, d.mapping.Load(), &in))
			if diff := dirStateDiff(spare, fresh.dir.peek()); diff != "" {
				t.Fatalf("the rebuild into a spare differs from a fresh build:%s", diff)
			}
			if len(spare.tails) < 2 || spare.tails[1].slots == 0 || len(slices.Concat(spare.dead...)) == 0 {
				t.Fatal("the fixture does not spread over tails or leave dead slots")
			}
		})
	}
}

// TestRebuildVsLockFreeReaders races lock-free lookups and listings of a
// shared directory against the lease-miss rebuilds that replace its state,
// and against a writer of the same application. Another application takes
// the directory each round; the owner's next create rebuilds it into a
// spare, which is often a state the directory had before (the ABA case
// withHeldBucket's check under the bucket lock must get right). A reader
// never misses a name that is always there nor finds one of the root's,
// and the writer's names are all in the directory at the end. Run under
// -race -count=10 at GOMAXPROCS 1, 2 and 4.
func TestRebuildVsLockFreeReaders(t *testing.T) {
	ctrl, err := kernel.Format(pmem.New(64<<20, nil), kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	owner := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	w, wr := th(t, owner), owner.NewThread(1).(*Thread)
	defer wr.Detach()
	static := make([]string, 48)
	for i := range static {
		static[i] = fmt.Sprintf("s%02d", i)
	}
	for _, err := range []error{w.Mkdir("/d"), w.Mkdir("/o")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range static {
		if err := w.Create("/d/" + n); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	root, err := w.resolve("/")
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	inos := map[string]uint64{}
	for _, n := range static {
		ino, _, _, _ := owner.lookupInDir(w, d, n)
		inos[n] = ino
	}

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rt := owner.NewThread(r + 2).(*Thread)
			defer rt.Detach()
			for i := 0; !stop.Load(); i++ {
				n := static[i%len(static)]
				if ino, _, ok, err := owner.lookupInDir(rt, d, n); !ok || err != nil || ino != inos[n] {
					t.Errorf("/d/%s: inode %d, %v, %v; want %d", n, ino, ok, err, inos[n])
					return
				}
				if _, _, ok, _ := owner.lookupInDir(rt, d, "o"); ok {
					t.Error("/d lists the root's name o")
					return
				}
				if _, _, ok, _ := owner.lookupInDir(rt, root, n); ok {
					t.Errorf("/ lists /d's name %s", n)
					return
				}
				if names := owner.names(d); len(names) < len(static) || slices.Contains(names, "o") {
					t.Errorf("/d lists %d names: %v", len(names), names)
					return
				}
				if i%8 == 0 {
					runtime.Gosched() // on one core, let the rounds run
				}
			}
		}()
	}

	var written []string
	seen, aba := map[*dirState]bool{}, 0
	for round := 0; round < 60 && !t.Failed(); round++ {
		for _, err := range []error{peer.Create(fmt.Sprintf("/d/p%d", round)), peer.Unlink(fmt.Sprintf("/d/p%d", round)), peer.fs.ReleaseAll()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		seen[d.dir.peek()] = true
		name := fmt.Sprintf("w%d", round)
		done := make(chan error, 1)
		go func() { done <- wr.Create("/d/" + name) }()
		errs := []error{w.Create(fmt.Sprintf("/d/a%d", round)), <-done}
		if ds := d.dir.peek(); seen[ds] {
			aba++
		}
		errs = append(errs, w.Unlink(fmt.Sprintf("/d/a%d", round)), owner.ReleaseAll())
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		written = append(written, name)
	}
	stop.Store(true)
	readers.Wait()
	t.Logf("%d of 60 rebuilds took a state /d had before", aba)
	if aba == 0 {
		t.Error("no rebuild took a state /d had before")
	}
	got := mustNames(t, w, "/d")
	if want := slices.Sorted(slices.Values(slices.Concat(static, written))); !slices.Equal(got, want) {
		t.Fatalf("/d lists %v, want %v", got, want)
	}
	if err := owner.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if rep, err := kernel.Fsck(ctrl.Device(), kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", rep, err)
	}
}

// pausedOverRebuild runs read, a read of /d on a thread of its own, paused
// at site once it has loaded /d's state, while a lease-miss rebuild retires
// that state and a Barrier runs. It returns what read returned, /d/f's
// inode, and whether the Barrier ended before read was let go.
func pausedOverRebuild[R any](t *testing.T, site string, read func(fs *FS, rt *Thread, d *minode) R) (r R, fIno uint64, recycledUnder bool) {
	t.Helper()
	ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	owner := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	w, rt := th(t, owner), owner.NewThread(1).(*Thread)
	defer rt.Detach()
	for _, err := range []error{w.Mkdir("/d"), w.Create("/d/f"), owner.ReleaseAll()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := w.resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	fIno, _, _, _ = owner.lookupInDir(w, d, "f")
	for _, err := range []error{peer.Create("/d/p"), peer.fs.ReleaseAll()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	old := d.dir.peek()
	var armed atomic.Bool
	loaded, resume := make(chan struct{}), make(chan struct{})
	ctrl.Device().SetObserver(pmem.OnSite(site, func() {
		if armed.CompareAndSwap(true, false) {
			close(loaded)
			<-resume
		}
	}))
	armed.Store(true)
	done := make(chan R, 1)
	go func() { done <- read(owner, rt, d) }()
	<-loaded
	err = w.Create("/d/x")
	if err == nil && d.dir.peek() == old {
		err = errors.New("the lease miss did not rebuild /d")
	}
	recycled := make(chan struct{})
	go func() {
		owner.dom.Barrier()
		close(recycled)
	}()
	select {
	case <-recycled:
		recycledUnder = true
	case <-time.After(50 * time.Millisecond):
	}
	close(resume)
	r = <-done
	<-recycled
	if err != nil {
		t.Fatal(err)
	}
	return r, fIno, recycledUnder
}

// TestLookupPinsTheStateItLoaded: a lock-free lookup paused after it has
// loaded a directory's state, while a lease-miss rebuild retires that
// state, holds the grace period off until it has searched it, and finds
// its name. A lookup pinned only inside the table let the grace period
// end, and Table.Clear run, under it.
func TestLookupPinsTheStateItLoaded(t *testing.T) {
	type result struct {
		ino uint64
		ok  bool
		err error
	}
	r, fIno, recycled := pausedOverRebuild(t, siteDirStateLoaded, func(fs *FS, rt *Thread, d *minode) result {
		ino, _, ok, err := fs.lookupInDir(rt, d, "f")
		return result{ino, ok, err}
	})
	if recycled {
		t.Error("the grace period ended while a lookup held the state the rebuild retired")
	}
	if !r.ok || r.err != nil || r.ino != fIno {
		t.Errorf("the paused lookup of /d/f: inode %d, %v, %v; want %d", r.ino, r.ok, r.err, fIno)
	}
}

// TestListingRetriesARecycledState: a listing paused after it has loaded a
// directory's state, which a lease-miss rebuild then retires and a grace
// period empties, lists the directory's names all the same: it sees under
// the bucket locks that the state is no longer the directory's, and takes
// the new one. Without that check it listed the emptied state.
func TestListingRetriesARecycledState(t *testing.T) {
	names, _, recycled := pausedOverRebuild(t, siteDirStateBeforeLock, func(fs *FS, rt *Thread, d *minode) []string {
		return fs.names(d)
	})
	if !recycled {
		t.Error("no grace period ended under the paused listing")
	}
	if want := []string{"f", "p", "x"}; !slices.Equal(names, want) {
		t.Fatalf("the paused listing of /d: %v, want %v", names, want)
	}
}

// commitHookCtl is the kernel with during run once, after the next commit
// crossing has committed and before the LibFS learns the verdict.
type commitHookCtl struct {
	kernelCtl
	during func()
}

func (c *commitHookCtl) Transfer(app kernel.AppID, inos []uint64, kind kernel.XferKind, sink telemetry.SpanSink, out []kernel.Released) []kernel.Released {
	out = c.kernelCtl.Transfer(app, inos, kind, sink, out)
	if f := c.during; kind == kernel.XferCommit && f != nil {
		c.during = nil
		f()
	}
	return out
}

// TestCommitLeavesARecycledStateAlone: a commit of /d during which /d is
// released, taken by a peer and rebuilt, and its old state recycled into a
// new directory that links a log page, leaves that directory's unverified
// pages and linked tails as they were: the verification covered /d, not
// it. Clearing them would leak the page should a compaction splice it out.
func TestCommitLeavesARecycledStateAlone(t *testing.T) {
	ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	owner := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	hc := &commitHookCtl{kernelCtl: owner.ctrl}
	owner.ctrl = hc
	peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	w, w2 := th(t, owner), owner.NewThread(1).(*Thread)
	defer w2.Detach()
	must := func(errs ...error) {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	must(w.Mkdir("/d"), w.Create("/d/f"), owner.ReleaseAll(), w.Create("/d/g"))
	d, err := w.resolve("/d")
	must(err)
	old := d.dir.peek()
	var e *minode
	var unverified []uint64
	var linked []bool
	hc.during = func() {
		must(owner.ReleaseAll(), peer.Create("/d/p"), peer.fs.ReleaseAll(), w2.Create("/d/x"))
		if d.dir.peek() == old {
			t.Fatal("the lease miss did not rebuild /d")
		}
		owner.dom.Barrier()
		for i := 0; e == nil && i <= maxSpareDirs; i++ {
			path := fmt.Sprintf("/e%d", i)
			must(w2.Mkdir(path))
			mi, err := w2.resolve(path)
			must(err)
			if mi.dir.peek() == old {
				must(w2.Create(path + "/f"))
				e = mi
			}
		}
		if e == nil {
			t.Fatal("no new directory took /d's old state")
		}
		unverified = slices.Clone(old.unverified)
		for i := range old.tails {
			linked = append(linked, old.tails[i].linked.Load())
		}
	}
	must(owner.CommitInode(w, "/d"))
	if hc.during != nil {
		t.Fatal("the commit of /d crossed no commit")
	}
	if len(unverified) == 0 || !slices.Contains(linked, true) {
		t.Fatalf("the new directory linked no page: unverified %v, linked %v", unverified, linked)
	}
	got := make([]bool, len(old.tails))
	for i := range old.tails {
		got[i] = old.tails[i].linked.Load()
	}
	if !slices.Equal(old.unverified, unverified) || !slices.Equal(got, linked) {
		t.Fatalf("after the commit of /d, the directory holding its old state has unverified %v, linked %v; want %v, %v",
			old.unverified, got, unverified, linked)
	}
}
