package core

import (
	"fmt"
	"testing"

	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/libfs"
	"arckfs/internal/telemetry"
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

// TestAppStatsCountEveryCrossing holds the applications' crossing rows to
// the kernel's own count: over a window of two applications, registered
// before it, the rows' Syscalls sum to the kernel.syscalls delta. The
// window reaches every LibFS crossing site — inode and page grants, Acquire
// and AcquireBatch, Commit, a ReleaseAll split into two Transfer
// crossings, a cross-directory directory rename taking and returning the
// rename lease, ReturnGrants, and ReleaseInode of an inode the LibFS never
// mapped — so a site that crosses without counting breaks the sum. Every
// operation is sampled, so the spans show each site was reached; the two
// sites no operation pays for (ReturnGrants, the unmapped release) are the
// only crossings the spans miss.
func TestAppStatsCountEveryCrossing(t *testing.T) {
	sys, err := NewSystem(Config{DevSize: 64 << 20, SpanSampling: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.NewApp(0, 0), sys.NewApp(0, 0)
	wa, wb := a.NewThread(0).(*libfs.Thread), b.NewThread(1).(*libfs.Thread)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(w *libfs.Thread, path string) {
		t.Helper()
		fd, err := w.Open(path)
		must(err)
		_, err = w.WriteAt(fd, make([]byte, layout.PageSize), 0)
		must(err)
		must(w.Close(fd))
	}
	rows := func() (n int64) {
		for _, st := range sys.AppStats() {
			n += st.Syscalls
		}
		return n
	}
	k0, r0, since := sys.Ctrl.Stats.Syscalls.Load(), rows(), uint64(sys.Tracer().Recorded())

	// A: grants, acquires, the rename and its commits, and one release
	// more inodes than a batch holds.
	must(wa.Mkdir("/x"))
	must(wa.Mkdir("/x/a"))
	must(wa.Mkdir("/y"))
	must(wa.Rename("/x/a", "/y/a"))
	for i := 0; i < kernel.MaxReleaseBatch; i++ {
		must(wa.Create(fmt.Sprintf("/y/f%d", i)))
	}
	write(wa, "/y/f0")
	x, err := wa.Stat("/x")
	must(err)
	must(a.ReleaseAll())
	// B takes /y and /y/f0 from A twice; A's first hold after that loses
	// both to lease misses, so its second takes them back in one batch.
	for turn := 0; turn < 2; turn++ {
		must(wb.Create(fmt.Sprintf("/y/b%d", turn)))
		write(wb, "/y/f0")
		must(b.ReleaseAll())
		must(wa.Create(fmt.Sprintf("/y/g%d", turn)))
		write(wa, "/y/f0")
		must(a.ReleaseAll())
	}
	b.ReturnGrants()
	if err := b.ReleaseInode(x.Ino); err == nil {
		t.Fatal("B released an inode it never held")
	}

	k, r := sys.Ctrl.Stats.Syscalls.Load()-k0, rows()-r0
	if r != k {
		t.Fatalf("the apps' rows count %d crossings, the kernel %d", r, k)
	}
	seen := map[string]int64{}
	var spanned int64
	splitRelease := false
	for _, sp := range sys.Tracer().Snapshot() {
		if sp.ID <= since {
			continue
		}
		splitRelease = splitRelease || sp.Count(telemetry.SpanEvReleaseBatch) >= 2
		for _, ev := range sp.Events {
			switch ev.Kind {
			case telemetry.SpanEvCrossing:
				seen[telemetry.EventKind(ev.A).String()]++
			case telemetry.SpanEvReleaseBatch, telemetry.SpanEvAcquireBatch:
				seen[telemetry.SpanEventName(ev.Kind)]++
			default:
				continue
			}
			spanned++
		}
	}
	for _, kind := range []string{"grant-inodes", "grant-pages", "acquire", "acquire-batch", "commit",
		"release-batch", "rename-lock-acquire", "rename-lock-release"} {
		if seen[kind] == 0 {
			t.Errorf("the window made no %s crossing (%v)", kind, seen)
		}
	}
	if !splitRelease {
		t.Error("no ReleaseAll split into two crossings")
	}
	if spanned+2 != k {
		t.Errorf("the spans show %d crossings, plus ReturnGrants and the unmapped release; the kernel counted %d (%v)", spanned, k, seen)
	}
}
