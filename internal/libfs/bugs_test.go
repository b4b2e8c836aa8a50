package libfs

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/pmem"
)

// This file reproduces every bug of the paper's Table 1 under the ArckFS
// configuration and shows the matching ArckFS+ patch fixes it, using the
// same deterministic interleaving for both.

// --- §4.1 Cross-directory rename failure -----------------------------------

func TestBug41CrossDirRenameFailure(t *testing.T) {
	fs := newFS(t, BugRenameVerify) // original verifier + rule-less LibFS
	w := th(t, fs)
	w.Mkdir("/a")
	w.Mkdir("/b")
	w.Mkdir("/a/sub")
	w.Create("/a/sub/inner")
	// Commit and release the whole tree so /a's verified state includes
	// sub — renames of never-verified state are trivially invisible.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rename("/a/sub", "/b/sub"); err != nil {
		t.Fatalf("local rename: %v", err)
	}
	// The relocation verifies as a deletion of a non-empty directory on
	// the old parent: releasing the tree fails.
	err := fs.ReleaseAll()
	if !kernel.IsVerificationError(err) {
		t.Fatalf("ReleaseAll = %v, want verification failure (the §4.1 bug)", err)
	}
	if !strings.Contains(err.Error(), "I3") {
		t.Fatalf("unexpected reason: %v", err)
	}
}

func TestBug41FixedInPlus(t *testing.T) {
	fs := newFS(t, BugsNone)
	w := th(t, fs)
	w.Mkdir("/a")
	w.Mkdir("/b")
	w.Mkdir("/a/sub")
	w.Create("/a/sub/inner")
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rename("/a/sub", "/b/sub"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll = %v, want success", err)
	}
}

// --- §4.2 Partially persisted dentry and inode ------------------------------

// crashDuringCreate creates name after a committed baseline and, at the
// §4.2 crash window — the commit marker stored, its fence not yet issued —
// mounts every crash image the device admits. It returns how many images
// it mounted and how many recovered a committed dentry over a torn body.
func crashDuringCreate(t *testing.T, bugs Bugs, name string) (images, torn int) {
	t.Helper()
	dev := pmem.New(8<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{Bugs: bugs})
	w := th(t, fs)

	// Track from a consistent baseline that already contains a committed
	// file, so the images are a realistic mid-workload crash.
	if err := w.Create("/before"); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	dev.EnableTracking()
	dev.SetObserver(func(site string) {
		if site == "libfs.create.marker" {
			n, k := tornImages(t, dev)
			images, torn = images+n, torn+k
		}
	})
	if err := w.Create(name); err != nil {
		t.Fatal(err)
	}
	if images == 0 {
		t.Fatal("the commit-marker site never fired")
	}
	t.Logf("%d images, %d torn", images, torn)
	return images, torn
}

// bug42Name spans several cache lines.
var bug42Name = "/victim-" + strings.Repeat("x", 120)

func TestBug42PartialPersistOnCrash(t *testing.T) {
	// Some crash state recovers the §4.2 signature: a committed dentry
	// whose body was torn.
	if images, torn := crashDuringCreate(t, BugMissingFence, bug42Name); torn == 0 {
		t.Fatalf("none of %d crash images holds a partially persisted dentry", images)
	}
}

func TestBug42FixedByFence(t *testing.T) {
	// The in-flight create either fully committed (then dropped as an
	// uncommitted inode, a dangling entry) or never appeared — both are
	// consistent outcomes; no crash state can tear an entry.
	if images, torn := crashDuringCreate(t, BugsNone, bug42Name); torn > 0 {
		t.Fatalf("fence did not prevent torn dentries: %d of %d crash images hold one", torn, images)
	}
}

// --- §4.3 Incorrect synchronization of inode sharing -------------------------

func runBug43Interleaving(t *testing.T, bugs Bugs) error {
	t.Helper()
	inWrite := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	fs := newFS(t, bugs)
	setup := th(t, fs)
	if err := setup.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	// Commit everything so /dir is ordinary committed, owned state.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	// Arm the window only after setup: it should catch the victim create.
	fs.dev.SetObserver(pmem.OnSite(siteDirWriteInProgress, func() {
		if fired.CompareAndSwap(false, true) {
			close(inWrite)
			<-resume
		}
	}))
	dirIno := func() uint64 {
		st, err := setup.Stat("/dir")
		if err != nil {
			t.Fatal(err)
		}
		return st.Ino
	}()

	errc := make(chan error, 1)
	go func() {
		w := fs.NewThread(1).(*Thread)
		defer w.Detach()
		errc <- w.Create("/dir/newfile") // pauses inside the directory write
	}()

	<-inWrite
	// Another thread voluntarily releases the directory while the write
	// is in flight.
	releaseDone := make(chan error, 1)
	go func() {
		releaseDone <- fs.ReleaseInode(dirIno)
	}()
	if bugs.Has(BugReleaseUnsync) {
		// ArckFS: the release proceeds immediately and unmaps.
		if err := <-releaseDone; err != nil {
			t.Fatalf("release: %v", err)
		}
		close(resume)
	} else {
		// ArckFS+: the release blocks on the directory's locks until the
		// writer finishes.
		select {
		case err := <-releaseDone:
			t.Fatalf("release completed while a writer was inside: %v", err)
		default:
		}
		close(resume)
		if err := <-releaseDone; err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	return <-errc
}

func TestBug43ReleaseUnsyncCrash(t *testing.T) {
	err := runBug43Interleaving(t, BugReleaseUnsync)
	if !errors.Is(err, fsapi.ErrBusError) {
		t.Fatalf("concurrent create = %v, want simulated bus error", err)
	}
}

func TestBug43FixedByLockedRelease(t *testing.T) {
	if err := runBug43Interleaving(t, BugsNone); err != nil {
		t.Fatalf("concurrent create = %v, want success", err)
	}
}

// TestBug43ReadAfterReleaseCachedVsCrash: after a voluntary release,
// ArckFS+ serves reads from retained auxiliary state (re-acquiring
// transparently for data), while ArckFS leaves stale references that
// dereference the unmapped core state.
func TestBug43ReadAfterReleaseCachedVsCrash(t *testing.T) {
	run := func(bugs Bugs) error {
		fs := newFS(t, bugs)
		w := th(t, fs)
		if err := w.Create("/f"); err != nil {
			t.Fatal(err)
		}
		fd, _ := w.Open("/f")
		if _, err := w.WriteAt(fd, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
		// Re-open so the file is held through a real kernel mapping.
		fd2, err := w.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		st, err := w.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		// Voluntarily release the file while fd2 is still in use.
		if err := fs.ReleaseInode(st.Ino); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		_, rerr := w.ReadAt(fd2, buf, 0)
		return rerr
	}
	if err := run(BugReleaseUnsync); !errors.Is(err, fsapi.ErrBusError) {
		t.Fatalf("ArckFS stale read = %v, want simulated bus error", err)
	}
	if err := run(BugsNone); err != nil {
		t.Fatalf("ArckFS+ read after release = %v, want success", err)
	}
}

// --- §4.4 Inconsistent core and auxiliary states -----------------------------

func TestBug44AuxCoreRaceSegfault(t *testing.T) {
	inWindow := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	fs := newFS(t, BugAuxCoreRace)
	setup := th(t, fs)
	setup.Mkdir("/d")
	fs.dev.SetObserver(pmem.OnSite(siteCreateBetweenAuxAndCore, func() {
		if fired.CompareAndSwap(false, true) {
			close(inWindow)
			<-resume
		}
	}))

	createErr := make(chan error, 1)
	go func() {
		w := fs.NewThread(1).(*Thread)
		defer w.Detach()
		createErr <- w.Create("/d/x")
	}()
	<-inWindow
	// The name is visible in auxiliary state but its core record does
	// not exist yet; a concurrent unlink dereferences it.
	w2 := fs.NewThread(2).(*Thread)
	defer w2.Detach()
	err := w2.Unlink("/d/x")
	close(resume)
	if cerr := <-createErr; cerr != nil {
		t.Fatalf("create: %v", cerr)
	}
	if !errors.Is(err, fsapi.ErrSegfault) {
		t.Fatalf("concurrent unlink = %v, want simulated segfault", err)
	}
}

func TestBug44FixedByExtendedCriticalSection(t *testing.T) {
	// Same workload, patched mode: the §4.4 window does not exist (the
	// site is unreachable), so run the full concurrent churn and require
	// zero faults.
	fs := newFS(t, BugsNone)
	fs.dev.SetObserver(pmem.OnSite(siteCreateBetweenAuxAndCore, func() {
		panic("unreachable: §4.4 window must not exist in ArckFS+")
	}))
	setup := th(t, fs)
	setup.Mkdir("/d")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		w := fs.NewThread(1).(*Thread)
		defer w.Detach()
		for i := 0; i < 300; i++ {
			if err := w.Create("/d/x"); err != nil && !errors.Is(err, fsapi.ErrExist) {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		w := fs.NewThread(2).(*Thread)
		defer w.Detach()
		for i := 0; i < 300; i++ {
			if err := w.Unlink("/d/x"); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// --- §4.5 Incorrect synchronization for directory bucket ---------------------

func runBug45Interleaving(t *testing.T, bugs Bugs, strict bool) error {
	t.Helper()
	inTraverse := make(chan struct{})
	resume := make(chan struct{})
	var fired atomic.Bool
	fs := newFSStrict(t, bugs, strict)
	setup := th(t, fs)
	if err := setup.Create("/victim"); err != nil {
		t.Fatal(err)
	}
	root, err := setup.resolve("/")
	if err != nil {
		t.Fatal(err)
	}
	// The window is the root table's own seam: htable has no device. CAS,
	// not sync.Once: later traversals (the writer's own lookups) must pass
	// straight through while the reader is parked.
	root.dir.peek().ht.TraverseHook = func() {
		if fired.CompareAndSwap(false, true) {
			close(inTraverse)
			<-resume
		}
	}

	errc := make(chan error, 1)
	go func() {
		w := fs.NewThread(1).(*Thread)
		defer w.Detach()
		_, err := w.Open("/victim") // reader pauses mid-bucket-traversal
		errc <- err
	}()
	<-inTraverse
	// Writer removes the entry and immediately recycles its memory.
	w2 := fs.NewThread(2).(*Thread)
	defer w2.Detach()
	if err := w2.Unlink("/victim"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if err := w2.Create("/recycler"); err != nil {
		t.Fatalf("create: %v", err)
	}
	close(resume)
	return <-errc
}

func TestBug45LocklessReaderSegfault(t *testing.T) {
	err := runBug45Interleaving(t, BugLocklessBucketRead, true)
	if !errors.Is(err, fsapi.ErrSegfault) {
		t.Fatalf("lockless open = %v, want simulated segfault", err)
	}
}

func TestBug45FixedByRCU(t *testing.T) {
	err := runBug45Interleaving(t, BugsNone, true)
	// The reader raced with the unlink: either outcome (found before the
	// delete, or ErrNotExist after) is fine — but no fault.
	if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("RCU open = %v, want success or ErrNotExist", err)
	}
}

// --- §4.6 Directory cycle -----------------------------------------------------

func runBug46ConcurrentRenames(t *testing.T, bugs Bugs) (*FS, error, error) {
	t.Helper()
	barrier := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1) // only the buggy mode parks both; see below
	fs := newFS(t, bugs)
	if bugs.Has(BugNoCycleCheck) {
		// Park both renames after their (absent) checks so the moves
		// interleave — the paper's case (1).
		var mu sync.Mutex
		waiting := 0
		fs.dev.SetObserver(pmem.OnSite(siteRenameAfterCheck, func() {
			mu.Lock()
			waiting++
			w := waiting
			mu.Unlock()
			if w == 1 {
				<-barrier // first rename waits for the second to arrive
			} else {
				close(barrier)
			}
		}))
	}
	setup := th(t, fs)
	for _, p := range []string{"/a", "/a/b", "/c", "/c/d"} {
		if err := setup.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		w := fs.NewThread(1).(*Thread)
		defer w.Detach()
		err1 = w.Rename("/c", "/a/b/c")
	}()
	go func() {
		defer wg.Done()
		w := fs.NewThread(2).(*Thread)
		defer w.Detach()
		err2 = w.Rename("/a", "/c/d/a")
	}()
	wg.Wait()
	entered.Done()
	return fs, err1, err2
}

func TestBug46DirectoryCycle(t *testing.T) {
	fs, err1, err2 := runBug46ConcurrentRenames(t, BugNoCycleCheck|BugRenameVerify)
	if err1 != nil || err2 != nil {
		t.Fatalf("renames: %v / %v", err1, err2)
	}
	// Both subtrees left the root: a and c reference each other.
	w := th(t, fs)
	names, err := w.Readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "a" || n == "c" {
			t.Fatalf("root still contains %q; no cycle formed", n)
		}
	}
	// The parent chains of a and c now loop: each is its own ancestor.
	aIno := mustIno(t, fs, "a")
	cIno := mustIno(t, fs, "c")
	a := loadMinode(fs, aIno)
	c := loadMinode(fs, cIno)
	if a == nil || c == nil {
		t.Fatal("minodes missing")
	}
	if !fs.isAncestor(a, c) || !fs.isAncestor(c, a) {
		t.Fatal("expected a and c to be mutual ancestors (a cycle)")
	}
}

func TestBug46FixedByLockAndDescendantCheck(t *testing.T) {
	fs, err1, err2 := runBug46ConcurrentRenames(t, BugsNone)
	// Exactly one rename succeeds; the other is refused (cycle) once the
	// first completes.
	okCount := 0
	for _, err := range []error{err1, err2} {
		if err == nil {
			okCount++
		} else if !errors.Is(err, fsapi.ErrInval) && !errors.Is(err, fsapi.ErrNotExist) {
			// ErrInval: the descendant check refused the cycle.
			// ErrNotExist: the winner already moved the loser's source.
			t.Fatalf("unexpected rename error: %v", err)
		}
	}
	if okCount != 1 {
		t.Fatalf("renames succeeded: %d, want exactly 1 (%v / %v)", okCount, err1, err2)
	}
	// The tree is intact and verifiable.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
}

// mustIno finds a (possibly detached) directory's ino by its name.
func mustIno(t *testing.T, fs *FS, name string) uint64 {
	t.Helper()
	var found uint64
	// Names are not stored in minodes; recover the ino from the other
	// dir's entries instead: a is under /c/d, c is under /a/b.
	w := th(t, fs)
	for _, p := range []string{"/a/b/" + name, "/c/d/" + name} {
		if st, err := w.Stat(p); err == nil {
			return st.Ino
		}
	}
	if found == 0 {
		// Fall back: scan every directory table.
		fs.inodes.Range(func(mi *minode) bool {
			if mi.dir.peek() == nil {
				return true
			}
			mi.dir.peek().ht.Range(func(n string, ino, _ uint64) bool {
				if n == name {
					found = ino
					return false
				}
				return true
			})
			return found == 0
		})
	}
	if found == 0 {
		t.Fatalf("ino of %q not found", name)
	}
	return found
}

func loadMinode(fs *FS, ino uint64) *minode { return fs.inodes.Load(ino) }
