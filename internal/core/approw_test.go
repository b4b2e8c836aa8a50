package core

import (
	"fmt"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/libfs"
)

// TestAppRowMatchesDevice holds one application's persist row to the
// device's own counters over a script that never crosses into the kernel:
// every flushed line, fence and streamed line the device counts must be
// charged to the app, no more and no fewer. That holds only while every
// LibFS persist goes through the thread's pmem.Batch — a site that flushes
// or fences the device directly breaks the equality — and while the row
// counts what the batch hands the device (lines drained at a fence, not
// flush requests before dedup; streamed lines, not streaming calls). The
// delegated write's workers stream beside the coordinator, so the test
// also runs under -race.
func TestAppRowMatchesDevice(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs := sys.NewApp(0, 0)
	w := fs.NewThread(0).(*libfs.Thread)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(path string, n int, off int64) {
		t.Helper()
		fd, err := w.Open(path)
		must(err)
		_, err = w.WriteAt(fd, make([]byte, n), off)
		must(err)
		must(w.Close(fd))
	}
	// Warm up outside the window: acquire the root and take the inode and
	// page grants the script will draw from.
	must(w.Mkdir("/warm"))
	must(w.Create("/warm/f"))
	write("/warm/f", 2<<20, 0)
	must(w.Truncate("/warm/f", 0))

	row := func() (flushes, fences, ntstores int64) {
		for _, st := range sys.AppStats() {
			if st.App == int64(fs.App()) {
				return st.Flushes, st.Fences, st.NTStores
			}
		}
		t.Fatal("the app has no attribution row")
		return
	}
	d := &sys.Dev.Stats
	sys0 := sys.Ctrl.Stats.Syscalls.Load()
	fl0, fe0, nt0 := row()
	dfl0, dfe0, dnt0 := d.Flushes.Load(), d.Fences.Load(), d.NTStores.Load()

	must(w.Mkdir("/d"))
	for i := 0; i < 20; i++ {
		must(w.Create(fmt.Sprintf("/d/f%d", i)))
	}
	write("/d/f0", 1<<20, 5000) // delegated, both edges ragged
	write("/d/f0", layout.PageSize, 0)
	must(w.Truncate("/d/f0", 64<<10))
	must(w.Rename("/d/f0", "/d/data"))
	for i := 1; i < 20; i++ {
		must(w.Unlink(fmt.Sprintf("/d/f%d", i)))
	}
	must(w.Mkdir("/d/sub"))
	must(w.Rmdir("/d/sub"))

	if n := sys.Ctrl.Stats.Syscalls.Load() - sys0; n != 0 {
		t.Fatalf("the script crossed into the kernel %d times; the window must hold LibFS persists only", n)
	}
	fl, fe, nt := row()
	for _, c := range []struct {
		what     string
		app, dev int64
	}{
		{"flushed lines", fl - fl0, d.Flushes.Load() - dfl0},
		{"fences", fe - fe0, d.Fences.Load() - dfe0},
		{"streamed lines", nt - nt0, d.NTStores.Load() - dnt0},
	} {
		if c.dev == 0 {
			t.Errorf("%s: the device counted none; the script is vacuous", c.what)
		}
		if c.app != c.dev {
			t.Errorf("%s: the app row reads %d, the device %d", c.what, c.app, c.dev)
		}
	}
}
