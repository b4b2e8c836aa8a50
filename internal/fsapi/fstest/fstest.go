// Package fstest provides a conformance suite run against every file
// system in the repository (ArckFS, ArckFS+, and the three baselines), so
// the benchmark harness can assume identical POSIX-ish semantics from all
// of them.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"arckfs/internal/fsapi"
)

// Run executes the conformance suite against a fresh FS from mk.
func Run(t *testing.T, mk func(t *testing.T) fsapi.FS) {
	t.Run("CreateOpenReadWrite", func(t *testing.T) { CreateOpenReadWrite(t, mk(t)) })
	t.Run("PathForms", func(t *testing.T) { PathForms(t, mk(t)) })
	t.Run("Errnos", func(t *testing.T) { testErrnos(t, mk(t)) })
	t.Run("MkdirReaddir", func(t *testing.T) { testMkdirReaddir(t, mk(t)) })
	t.Run("UnlinkRmdir", func(t *testing.T) { testUnlinkRmdir(t, mk(t)) })
	t.Run("RenameFile", func(t *testing.T) { testRenameFile(t, mk(t)) })
	t.Run("Truncate", func(t *testing.T) { testTruncate(t, mk(t)) })
	t.Run("GrowthReadsZeroes", func(t *testing.T) { testGrowthReadsZeroes(t, mk(t)) })
	t.Run("LargeIO", func(t *testing.T) { testLargeIO(t, mk(t)) })
	t.Run("ParallelPrivateDirs", func(t *testing.T) { testParallel(t, mk(t)) })
}

// CreateOpenReadWrite is the suite's first case, exported for the one
// system (buggy ArckFS) that runs only this much of it.
func CreateOpenReadWrite(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("conformance payload")
	if n, err := w.WriteAt(fd, data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := w.ReadAt(fd, got, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// A zero-length write is a no-op wherever it lands: the Stat below
	// must not see the file grown to its offset.
	if n, err := w.WriteAt(fd, nil, 8192); err != nil || n != 0 {
		t.Fatalf("zero-length WriteAt = %d, %v", n, err)
	}
	st, err := w.Stat("/f")
	if err != nil || st.Size != uint64(len(data)) || st.Dir {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if err := w.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// PathForms: repeated and trailing slashes separate nothing, so an
// unclean path names what its cleaned form names. Exported, like the first
// case, for buggy ArckFS.
func PathForms(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := w.Create("/d//f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("//d/f/")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(fd, []byte("seven b"), 0); err != nil {
		t.Fatal(err)
	}
	clean, err := w.Stat("/d/f")
	if err != nil || clean.Size != 7 || clean.Dir {
		t.Fatalf("Stat(/d/f) = %+v, %v", clean, err)
	}
	if unclean, err := w.Stat("//d//f/"); err != nil || unclean != clean {
		t.Fatalf("Stat(//d//f/) = %+v, %v; Stat(/d/f) = %+v", unclean, err, clean)
	}
	if root, err := w.Stat("//"); err != nil || !root.Dir {
		t.Fatalf("Stat(//) = %+v, %v", root, err)
	}
}

func testErrnos(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	mustErr := func(err, want error, what string) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s = %v, want %v", what, err, want)
		}
	}
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	mustErr(w.Create("/f"), fsapi.ErrExist, "duplicate create")
	_, err := w.Open("/nope")
	mustErr(err, fsapi.ErrNotExist, "open missing")
	mustErr(w.Unlink("/nope"), fsapi.ErrNotExist, "unlink missing")
	_, err = w.Stat("/nope")
	mustErr(err, fsapi.ErrNotExist, "stat missing")
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	mustErr(w.Mkdir("/d"), fsapi.ErrExist, "duplicate mkdir")
	mustErr(w.Unlink("/d"), fsapi.ErrIsDir, "unlink dir")
	mustErr(w.Rmdir("/f"), fsapi.ErrNotDir, "rmdir file")
	if err := w.Create("/d/x"); err != nil {
		t.Fatal(err)
	}
	mustErr(w.Rmdir("/d"), fsapi.ErrNotEmpty, "rmdir non-empty")
	mustErr(w.Create("/f/under"), fsapi.ErrNotDir, "create under file")
	mustErr(w.Create("/gone/under"), fsapi.ErrNotExist, "create under missing")
}

func testMkdirReaddir(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	if err := w.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := w.Create(fmt.Sprintf("/a/b/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := w.Readdir("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 25 {
		t.Fatalf("Readdir = %d entries", len(names))
	}
	st, err := w.Stat("/a/b")
	if err != nil || !st.Dir {
		t.Fatalf("Stat dir = %+v, %v", st, err)
	}
	if names2, _ := w.Readdir("/a"); len(names2) != 1 || names2[0] != "b" {
		t.Fatalf("Readdir /a = %v", names2)
	}
}

func testUnlinkRmdir(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	w.Mkdir("/d")
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if err := w.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if err := w.Unlink(p); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Stat(p); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("stat after unlink: %v", err)
		}
	}
	if err := w.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Stat("/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after rmdir: %v", err)
	}
	// Name reuse after unlink.
	if err := w.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
}

func testRenameFile(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	w.Mkdir("/src")
	w.Mkdir("/dst")
	w.Create("/src/f")
	fd, _ := w.Open("/src/f")
	w.WriteAt(fd, []byte("moved"), 0)
	w.Close(fd)
	if err := w.Rename("/src/f", "/src/g"); err != nil {
		t.Fatalf("same-dir rename: %v", err)
	}
	if err := w.Rename("/src/g", "/dst/h"); err != nil {
		t.Fatalf("cross-dir rename: %v", err)
	}
	fd, err := w.Open("/dst/h")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	w.ReadAt(fd, got, 0)
	if string(got) != "moved" {
		t.Fatalf("data after rename: %q", got)
	}
	if _, err := w.Stat("/src/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("source name survives")
	}
}

func testTruncate(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	w.Create("/f")
	fd, _ := w.Open("/f")
	blob := make([]byte, 20000)
	for i := range blob {
		blob[i] = byte(i % 251)
	}
	w.WriteAt(fd, blob, 0)
	if err := w.Truncate("/f", 5000); err != nil {
		t.Fatal(err)
	}
	st, _ := w.Stat("/f")
	if st.Size != 5000 {
		t.Fatalf("size = %d", st.Size)
	}
	got := make([]byte, 5000)
	if n, _ := w.ReadAt(fd, got, 0); n != 5000 || !bytes.Equal(got, blob[:5000]) {
		t.Fatalf("data after shrink: n=%d", n)
	}
}

// testGrowthReadsZeroes: bytes a file held past its size before a shrink,
// and whatever a fresh block held before it was allocated, read back as
// zeroes once the file grows over them, by truncate or by a write past the
// end. The file system's freed pages are recycled first, so a block that
// is never zeroed cannot pass for one that was.
func testGrowthReadsZeroes(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	junk := bytes.Repeat([]byte{0xA5}, 32<<10)
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(fd fsapi.FD, p []byte, off int64) {
		t.Helper()
		if n, err := w.WriteAt(fd, p, off); err != nil || n != len(p) {
			t.Fatalf("WriteAt(%d bytes at %d) = %d, %v", len(p), off, n, err)
		}
	}
	// open creates path holding n junk bytes.
	open := func(path string, n int) fsapi.FD {
		t.Helper()
		mustOK(w.Create(path))
		fd, err := w.Open(path)
		mustOK(err)
		if n > 0 {
			write(fd, junk[:n], 0)
		}
		return fd
	}
	// zeroes requires path's size to be size and [from, to) to read zero.
	zeroes := func(path string, fd fsapi.FD, size uint64, from, to int64) {
		t.Helper()
		if st, err := w.Stat(path); err != nil || st.Size != size {
			t.Fatalf("Stat(%s) = %+v, %v; want size %d", path, st, err, size)
		}
		got := make([]byte, to-from)
		if n, err := w.ReadAt(fd, got, from); err != nil || n != len(got) {
			t.Fatalf("ReadAt(%s, [%d, %d)) = %d, %v", path, from, to, n, err)
		}
		for i, b := range got {
			if b != 0 {
				t.Fatalf("%s: byte %d reads %#x, want 0", path, from+int64(i), b)
			}
		}
	}

	fd := open("/recycled", len(junk))
	mustOK(w.Close(fd))
	mustOK(w.Unlink("/recycled"))
	// A file system that parks freed pages behind a grace period hands
	// them back to its allocator at a release.
	if r, ok := fs.(interface{ ReleaseAll() error }); ok {
		mustOK(r.ReleaseAll())
	}

	fd = open("/shrunk", 8192)
	mustOK(w.Truncate("/shrunk", 100))
	mustOK(w.Truncate("/shrunk", 8192))
	zeroes("/shrunk", fd, 8192, 100, 8192)

	fd = open("/written", 8192)
	mustOK(w.Truncate("/written", 100))
	write(fd, []byte{1}, 200)
	zeroes("/written", fd, 201, 100, 200)

	fd = open("/fresh", 0)
	write(fd, junk[:125], 0)
	mustOK(w.Truncate("/fresh", 4096))
	zeroes("/fresh", fd, 4096, 125, 4096)

	// Past the end, across a block boundary: the rest of the old last
	// block, a fresh block's head, and a fresh block after it.
	fd = open("/crossing", 8192)
	mustOK(w.Truncate("/crossing", 100))
	write(fd, junk[:200], 8100)
	zeroes("/crossing", fd, 8300, 100, 8100)
}

func testLargeIO(t *testing.T, fs fsapi.FS) {
	w := fs.NewThread(0)
	w.Create("/big")
	fd, _ := w.Open("/big")
	blob := make([]byte, 256<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	if n, err := w.WriteAt(fd, blob, 12345); err != nil || n != len(blob) {
		t.Fatalf("large write: %d, %v", n, err)
	}
	got := make([]byte, len(blob))
	if n, err := w.ReadAt(fd, got, 12345); err != nil || n != len(blob) {
		t.Fatalf("large read: %d, %v", n, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("large IO data mismatch")
	}
	// Random 4K overwrites.
	for i := 0; i < 16; i++ {
		off := int64(i * 8192)
		page := make([]byte, 4096)
		for j := range page {
			page[j] = byte(i)
		}
		w.WriteAt(fd, page, off)
		back := make([]byte, 4096)
		w.ReadAt(fd, back, off)
		if !bytes.Equal(back, page) {
			t.Fatalf("overwrite %d mismatch", i)
		}
	}
}

func testParallel(t *testing.T, fs fsapi.FS) {
	setup := fs.NewThread(0)
	const nt = 4
	for g := 0; g < nt; g++ {
		if err := setup.Mkdir(fmt.Sprintf("/p%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, nt)
	for g := 0; g < nt; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fs.NewThread(g)
			buf := make([]byte, 4096)
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("/p%d/f%d", g, i)
				if err := w.Create(p); err != nil {
					errs[g] = err
					return
				}
				fd, err := w.Open(p)
				if err != nil {
					errs[g] = err
					return
				}
				if _, err := w.WriteAt(fd, buf, 0); err != nil {
					errs[g] = err
					return
				}
				w.Close(fd)
				if i%2 == 0 {
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
}
