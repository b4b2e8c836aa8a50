package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/verifier"
)

// newFS builds a fresh system with the given bug set. Hooks may be nil.
func newFS(t testing.TB, bugs Bugs, hooks *Hooks) *FS {
	return newFSStrict(t, bugs, hooks, false)
}

// newFSStrict additionally selects the instrumented §4.5 build that
// faults immediately on a recycled entry.
func newFSStrict(t testing.TB, bugs Bugs, hooks *Hooks, strict bool) *FS {
	t.Helper()
	mode := verifier.Enhanced
	if bugs.Has(BugRenameVerify) {
		mode = verifier.Original
	}
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{Mode: mode, InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	app := ctrl.RegisterApp(0, 0)
	return New(ctrl, app, Options{Bugs: bugs, Hooks: hooks, StrictUAF: strict})
}

// kctl returns the kernel fs crosses into.
func kctl(fs *FS) *kernel.Controller { return fs.ctrl.(*kernel.Controller) }

func th(t testing.TB, fs *FS) *Thread {
	return fs.NewThread(0).(*Thread)
}

func TestCreateOpenReadWrite(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Create("/hello.txt"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("persistent memory says hi")
	if n, err := w.WriteAt(fd, msg, 0); err != nil || n != len(msg) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if n, err := w.ReadAt(fd, got, 0); err != nil || n != len(msg) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q", got)
	}
	st, err := w.Stat("/hello.txt")
	if err != nil || st.Size != uint64(len(msg)) || st.Dir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if err := w.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(fd); !errors.Is(err, fsapi.ErrBadFd) {
		t.Fatalf("double close: %v", err)
	}
}

func TestErrnoSemantics(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Create("/a"); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := w.Open("/missing"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
	if err := w.Unlink("/missing"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("unlink missing: %v", err)
	}
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := w.Unlink("/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("unlink dir: %v", err)
	}
	if err := w.Rmdir("/a"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("rmdir file: %v", err)
	}
	if err := w.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := w.Rmdir("/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := w.Unlink("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := w.Rmdir("/d"); err != nil {
		t.Fatalf("rmdir empty: %v", err)
	}
	if err := w.Create("/a/b"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("create under file: %v", err)
	}
	if err := w.Create("/nosuch/b"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("create under missing dir: %v", err)
	}
	if err := w.Create("/" + string(make([]byte, 300))); !errors.Is(err, fsapi.ErrNameTooLong) && !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("long name: %v", err)
	}
}

func TestDeepPathsAndReaddir(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	path := ""
	for i := 0; i < 5; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		if err := w.Mkdir(path); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := w.Create(fmt.Sprintf("%s/f%02d", path, i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := w.Readdir(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 10 || names[0] != "f00" || names[9] != "f09" {
		t.Fatalf("Readdir = %v", names)
	}
	st, err := w.Stat(path)
	if err != nil || !st.Dir {
		t.Fatalf("Stat dir = %+v, %v", st, err)
	}
}

func TestSparseAndLargeFile(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	if err := w.Create("/big"); err != nil {
		t.Fatal(err)
	}
	fd, _ := w.Open("/big")
	// Write at a far offset: the gap reads as zeros.
	far := int64(3*layout.PageSize + 100)
	if _, err := w.WriteAt(fd, []byte("tail"), far); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if n, _ := w.ReadAt(fd, got, far-4); n != 8 {
		t.Fatalf("short read %d", n)
	}
	if !bytes.Equal(got, append([]byte{0, 0, 0, 0}, []byte("tail")...)) {
		t.Fatalf("got %q", got)
	}
	// Cross-page write.
	blob := make([]byte, 3*layout.PageSize)
	for i := range blob {
		blob[i] = byte(i)
	}
	if _, err := w.WriteAt(fd, blob, layout.PageSize/2); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(blob))
	w.ReadAt(fd, back, layout.PageSize/2)
	if !bytes.Equal(back, blob) {
		t.Fatal("cross-page data mismatch")
	}
}

func TestTruncate(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	w.Create("/f")
	fd, _ := w.Open("/f")
	data := make([]byte, 10*layout.PageSize)
	for i := range data {
		data[i] = 0x5a
	}
	w.WriteAt(fd, data, 0)
	if err := w.Truncate("/f", 4*layout.PageSize+17); err != nil {
		t.Fatal(err)
	}
	st, _ := w.Stat("/f")
	if st.Size != 4*layout.PageSize+17 {
		t.Fatalf("size = %d", st.Size)
	}
	// Data before the cut survives; reads beyond return nothing.
	got := make([]byte, 32)
	n, _ := w.ReadAt(fd, got, 4*layout.PageSize)
	if n != 17 {
		t.Fatalf("read %d at tail", n)
	}
	// Growing truncate leaves a hole.
	if err := w.Truncate("/f", 20*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	n, _ = w.ReadAt(fd, got, 19*layout.PageSize)
	if n != 32 || got[0] != 0 {
		t.Fatalf("hole read n=%d b=%d", n, got[0])
	}
}

func TestRenameFileSameDir(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	w.Create("/old")
	fd, _ := w.Open("/old")
	w.WriteAt(fd, []byte("payload"), 0)
	if err := w.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Open("/old"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old survives: %v", err)
	}
	fd2, err := w.Open("/new")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	w.ReadAt(fd2, got, 0)
	if string(got) != "payload" {
		t.Fatalf("data lost: %q", got)
	}
	// Destination exists -> error.
	w.Create("/other")
	if err := w.Rename("/new", "/other"); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("overwrite: %v", err)
	}
}

func TestRenameFileCrossDir(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	w.Mkdir("/src")
	w.Mkdir("/dst")
	w.Create("/src/f")
	if err := w.Rename("/src/f", "/dst/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Stat("/dst/g"); err != nil {
		t.Fatal(err)
	}
	// The whole tree still verifies at release.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll after file move: %v", err)
	}
}

// TestRenameCommittedFileCrossDir moves a file the kernel already knows
// into another directory and releases. Inode numbers are handed out
// downward, so whichever of the two directories was made second releases
// first; when that is the old parent, the release reads the move as an
// unlink unless the new parent was committed at the rename. The new parent
// may also be one the kernel has not seen yet. Every way, the bytes must be
// readable at the new name by a second application.
func TestRenameCommittedFileCrossDir(t *testing.T) {
	for _, c := range []struct {
		name          string
		before, after []string // directories made before and after the first release
	}{
		{"src-first", []string{"/src", "/dst"}, nil},
		{"dst-first", []string{"/dst", "/src"}, nil},
		{"dst-fresh", []string{"/src"}, []string{"/dst"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := newFS(t, BugsNone, nil)
			w := th(t, fs)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range c.before {
				must(w.Mkdir(d))
			}
			must(w.Create("/src/f"))
			want := []byte("moved, not lost")
			fd, err := w.Open("/src/f")
			must(err)
			_, err = w.WriteAt(fd, want, 0)
			must(err)
			must(w.Close(fd))
			must(fs.ReleaseAll())
			for _, d := range c.after {
				must(w.Mkdir(d))
			}
			must(w.Rename("/src/f", "/dst/g"))
			must(fs.ReleaseAll())

			peer := New(kctl(fs), kctl(fs).RegisterApp(0, 0), Options{})
			r := th(t, peer)
			fd, err = r.Open("/dst/g")
			must(err)
			got := make([]byte, len(want))
			if _, err := r.ReadAt(fd, got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read %q, %v; want %q", got, err, want)
			}
			if _, err := r.Stat("/src/f"); !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("the old name survives: %v", err)
			}
		})
	}
}

func TestRenameDirCrossDirPlus(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	w.Mkdir("/a")
	w.Mkdir("/b")
	w.Mkdir("/a/sub")
	w.Create("/a/sub/inner")
	if err := w.Rename("/a/sub", "/b/sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Stat("/b/sub/inner"); err != nil {
		t.Fatalf("moved subtree unreachable: %v", err)
	}
	if _, err := w.Stat("/a/sub"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("source survives: %v", err)
	}
	// ArckFS+ keeps the kernel consistent: everything releases clean.
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll after dir relocation: %v", err)
	}
}

func TestRenameDirIntoOwnDescendantRejected(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	w.Mkdir("/a")
	w.Mkdir("/a/b")
	if err := w.Rename("/a", "/a/b/a"); !errors.Is(err, fsapi.ErrInval) {
		t.Fatalf("descendant rename: %v", err)
	}
}

func TestReleaseAllAndReuse(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	w.Mkdir("/d")
	for i := 0; i < 20; i++ {
		w.Create(fmt.Sprintf("/d/f%d", i))
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	// Reads still serve from retained aux state (§4.3 patch).
	names, err := w.Readdir("/d")
	if err != nil || len(names) != 20 {
		t.Fatalf("Readdir after release: %d, %v", len(names), err)
	}
	if _, err := w.Stat("/d/f3"); err != nil {
		t.Fatalf("Stat after release: %v", err)
	}
	// Writes transparently re-acquire.
	if err := w.Create("/d/after"); err != nil {
		t.Fatalf("Create after release: %v", err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondAppSeesVerifiedState(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{Mode: verifier.Enhanced, InodeCap: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	fs1 := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w1 := th(t, fs1)
	w1.Mkdir("/shared")
	w1.Create("/shared/doc")
	fd, _ := w1.Open("/shared/doc")
	w1.WriteAt(fd, []byte("cross-app"), 0)
	if err := fs1.ReleaseAll(); err != nil {
		t.Fatal(err)
	}

	fs2 := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w2 := th(t, fs2)
	fd2, err := w2.Open("/shared/doc")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	w2.ReadAt(fd2, got, 0)
	if string(got) != "cross-app" {
		t.Fatalf("app2 read %q", got)
	}
}

func TestConcurrentCreatesDistinctDirs(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	setup := th(t, fs)
	const nt = 4
	for g := 0; g < nt; g++ {
		if err := setup.Mkdir(fmt.Sprintf("/d%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, nt)
	for g := 0; g < nt; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fs.NewThread(g).(*Thread)
			defer w.Detach()
			for i := 0; i < 200; i++ {
				p := fmt.Sprintf("/d%d/f%d", g, i)
				if err := w.Create(p); err != nil {
					errs[g] = err
					return
				}
				if i%3 == 0 {
					if err := w.Unlink(p); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
}

func TestConcurrentSharedDirChurn(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	setup := th(t, fs)
	if err := setup.Mkdir("/shared"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fs.NewThread(g).(*Thread)
			defer w.Detach()
			for i := 0; i < 150; i++ {
				p := fmt.Sprintf("/shared/g%d-%d", g, i%20)
				switch i % 3 {
				case 0:
					if err := w.Create(p); err != nil && !errors.Is(err, fsapi.ErrExist) {
						errs[g] = err
						return
					}
				case 1:
					if _, err := w.Stat(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
						errs[g] = err
						return
					}
				case 2:
					if err := w.Unlink(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
}

// TestQuickOracle drives random operation sequences against ArckFS+ and an
// in-memory model, checking observable equivalence, then verifies the
// whole tree releases cleanly.
func TestQuickOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := newFS(t, BugsNone, nil)
		w := th(t, fs)
		type mfile struct{ data []byte }
		dirs := map[string]bool{"/": true}
		files := map[string]*mfile{}
		paths := []string{"/"}
		randDir := func() string { return paths[rng.Intn(len(paths))] }
		join := func(d, n string) string {
			if d == "/" {
				return "/" + n
			}
			return d + "/" + n
		}
		for i := 0; i < 120; i++ {
			switch rng.Intn(6) {
			case 0: // mkdir
				p := join(randDir(), fmt.Sprintf("d%d", i))
				err := w.Mkdir(p)
				if dirs[p] || files[p] != nil {
					if !errors.Is(err, fsapi.ErrExist) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					dirs[p] = true
					paths = append(paths, p)
				}
			case 1: // create
				p := join(randDir(), fmt.Sprintf("f%d", rng.Intn(30)))
				err := w.Create(p)
				if dirs[p] || files[p] != nil {
					if !errors.Is(err, fsapi.ErrExist) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					files[p] = &mfile{}
				}
			case 2: // write
				var names []string
				for p := range files {
					names = append(names, p)
				}
				if len(names) == 0 {
					continue
				}
				p := names[rng.Intn(len(names))]
				fd, err := w.Open(p)
				if err != nil {
					return false
				}
				off := rng.Intn(3 * layout.PageSize)
				blob := make([]byte, rng.Intn(2*layout.PageSize)+1)
				rng.Read(blob)
				if _, err := w.WriteAt(fd, blob, int64(off)); err != nil {
					return false
				}
				mf := files[p]
				if need := off + len(blob); need > len(mf.data) {
					mf.data = append(mf.data, make([]byte, need-len(mf.data))...)
				}
				copy(mf.data[off:], blob)
				w.Close(fd)
			case 3: // read + compare
				for p, mf := range files {
					fd, err := w.Open(p)
					if err != nil {
						return false
					}
					got := make([]byte, len(mf.data))
					n, err := w.ReadAt(fd, got, 0)
					if err != nil || n != len(mf.data) || !bytes.Equal(got, mf.data) {
						return false
					}
					w.Close(fd)
					break
				}
			case 4: // unlink
				for p := range files {
					if rng.Intn(2) == 0 {
						continue
					}
					if err := w.Unlink(p); err != nil {
						return false
					}
					delete(files, p)
					break
				}
			case 5: // stat
				for p, mf := range files {
					st, err := w.Stat(p)
					if err != nil || st.Size != uint64(len(mf.data)) {
						return false
					}
					break
				}
			}
		}
		return fs.ReleaseAll() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
