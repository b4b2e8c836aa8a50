package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// spanCrossings counts the kernel crossings that the children of tr's
// spans with an ID above since witnessed: timed crossings by kind, vectored
// releases, and vectored acquires with the inodes they mapped.
func spanCrossings(tr *span.Tracer, since uint64) (byKind map[telemetry.EventKind]int64, releases, acquires, acquired int64) {
	byKind = make(map[telemetry.EventKind]int64)
	for _, sp := range tr.Snapshot() {
		if sp.ID <= since {
			continue
		}
		for _, ev := range sp.Events {
			switch ev.Kind {
			case telemetry.SpanEvCrossing:
				byKind[telemetry.EventKind(ev.A)]++
			case telemetry.SpanEvReleaseBatch:
				releases++
			case telemetry.SpanEvAcquireBatch:
				acquires++
				acquired += ev.A
			}
		}
	}
	return
}

// TestHandoffTurnIsTwoCrossings pins what a sharing turn costs: two
// applications alternate on a shared directory and shared files. An
// application's first turn pays one crossing per inode it has to take over;
// from its second on, the first lease miss takes back everything the
// previous turn lost in one AcquireBatch, whose acquire-batch event carries
// the inode count. Either way the turn hands everything back in one
// crossing, and the verifier walks each released inode once — the acquires
// adopt the peer's verified baseline. Every span is sampled, so the
// holder's span rings account for every crossing the kernel charged — each
// is a child of the operation that paid it — and the per-app row counts
// the same; the turn's release span shows its one crossing with the inode
// count.
func TestHandoffTurnIsTwoCrossings(t *testing.T) {
	const shared, batch = 4, 8
	dev := pmem.New(64<<20, nil)
	dim := telemetry.NewAppDim()
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12, AppDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	var fss [2]*FS
	var ws [2]*Thread
	var trs [2]*span.Tracer
	var fds [2][shared]fsapi.FD
	for a := range fss {
		fss[a] = New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		trs[a] = span.New(64, 1)
		trs[a].SetEnabled(true)
		fss[a].SetObservability(trs[a], nil)
		ws[a] = fss[a].NewThread(a).(*Thread)
	}
	if err := ws[0].Mkdir("/h"); err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0xA5}, layout.PageSize)
	for i := 0; i < shared; i++ {
		p := fmt.Sprintf("/h/data%d", i)
		if err := ws[0].Create(p); err != nil {
			t.Fatal(err)
		}
		fd, _ := ws[0].Open(p)
		if _, err := ws[0].WriteAt(fd, block, 0); err != nil {
			t.Fatal(err)
		}
	}
	for a := range fss {
		for i := 0; i < shared; i++ {
			if fds[a][i], err = ws[a].Open(fmt.Sprintf("/h/data%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fss[a].ReleaseAll(); err != nil {
			t.Fatal(err)
		}
	}
	vs := ctrl.VerifierStats()
	for turn := 0; turn < 6; turn++ {
		a := turn % 2
		since := uint64(trs[a].Recorded()) // span IDs count from 1
		st := ctrl.Stats.Snapshot()
		row := dim.Row(int64(fss[a].app)).Get(telemetry.AppSyscalls)
		walked := vs.Dentries.Load() + vs.Pages.Load()
		for i := 0; i < batch; i++ {
			if err := ws[a].Create(fmt.Sprintf("/h/t%d-%d", turn, i)); err != nil {
				t.Fatalf("turn %d: %v", turn, err)
			}
		}
		for i := 0; i < shared; i++ {
			if _, err := ws[a].WriteAt(fds[a][i], block, 0); err != nil {
				t.Fatalf("turn %d: %v", turn, err)
			}
		}
		// Every acquire of the turn has happened, and adopted the peer's
		// verified baseline: the verifier has not looked at anything yet.
		if got := vs.Dentries.Load() + vs.Pages.Load() - walked; got != 0 {
			t.Fatalf("turn %d: the acquires walked %d records and pages, want 0", turn, got)
		}
		spans := trs[a].Recorded()
		if err := fss[a].ReleaseAll(); err != nil {
			t.Fatalf("turn %d release: %v", turn, err)
		}
		d := ctrl.Stats.Snapshot()
		// Root, /h, the shared files and this turn's new files.
		const n = 2 + shared + batch
		if d.Releases-st.Releases != n || d.Verifications-st.Verifications != n {
			t.Fatalf("turn %d: %d releases, %d verifications; want %d each",
				turn, d.Releases-st.Releases, d.Verifications-st.Verifications, n)
		}
		byKind, batches, acqBatches, acquired := spanCrossings(trs[a], since)
		acquires, commits := byKind[telemetry.EvAcquire], byKind[telemetry.EvCommit]
		grants := byKind[telemetry.EvGrantInodes] + byKind[telemetry.EvGrantPages]
		if acquires+acquired != d.Acquires-st.Acquires || commits != d.Commits-st.Commits || batches != 1 {
			t.Fatalf("turn %d: spans show %d acquires + %d batched, %d commits, %d release crossings; kernel counted %d, %d, want 1",
				turn, acquires, acquired, commits, batches, d.Acquires-st.Acquires, d.Commits-st.Commits)
		}
		if got := d.Syscalls - st.Syscalls; got != acquires+acqBatches+commits+grants+batches {
			t.Fatalf("turn %d: kernel charged %d crossings, spans show %d acquires + %d acquire batches + %d commits + %d grants + %d release (%v)",
				turn, got, acquires, acqBatches, commits, grants, batches, byKind)
		}
		if got := dim.Row(int64(fss[a].app)).Get(telemetry.AppSyscalls) - row; got != d.Syscalls-st.Syscalls {
			t.Fatalf("turn %d: app row counts %d crossings, kernel %d", turn, got, d.Syscalls-st.Syscalls)
		}
		if got := d.Acquires - st.Acquires; got != 2+shared {
			t.Fatalf("turn %d: %d acquires, want %d: everything the peer held", turn, got, 2+shared)
		}
		// Each application's first turn has no working set yet: one
		// crossing per inode. From its second turn on, one crossing.
		if turn >= 2 && (acqBatches != 1 || acquires != 0 || acquired != 2+shared || commits+grants != 0) {
			t.Fatalf("turn %d: %d acquire batches of %d inodes, %d single acquires, %d commits, %d grants; want one batch of %d and nothing else",
				turn, acqBatches, acquired, acquires, commits, grants, 2+shared)
		}
		if trs[a].Recorded() != spans+1 {
			t.Fatalf("turn %d: ReleaseAll recorded %d spans, want 1", turn, trs[a].Recorded()-spans)
		}
		var rel *span.Span
		for _, sp := range trs[a].Snapshot() {
			if sp.Op == fsapi.OpRelease && (rel == nil || sp.ID > rel.ID) {
				rel = sp
			}
		}
		if rel == nil || rel.Count(telemetry.SpanEvReleaseBatch) != 1 {
			t.Fatalf("turn %d: release span %v, want one release-batch event", turn, rel)
		}
		for _, ev := range rel.Events {
			if ev.Kind == telemetry.SpanEvReleaseBatch && (ev.A != n || ev.B <= 0) {
				t.Fatalf("turn %d: release-batch event %+v, want %d inodes and a duration", turn, ev, n)
			}
		}
	}
}

// TestReleaseAllSplitsAtBatchCap: one more inode than a crossing accepts
// is two crossings, each taking (and giving back) an admission slot.
func TestReleaseAllSplitsAtBatchCap(t *testing.T) {
	dev := pmem.New(64<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 12, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	ctrl.RegisterTelemetry(set)
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w := th(t, fs)
	for i := 0; i < kernel.MaxReleaseBatch; i++ { // plus the root
		if err := w.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := ctrl.Stats.Snapshot()
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	after := ctrl.Stats.Snapshot()
	if got := after.Syscalls - before.Syscalls; got != 2 {
		t.Fatalf("ReleaseAll of %d inodes made %d crossings, want 2", kernel.MaxReleaseBatch+1, got)
	}
	if got := after.Releases - before.Releases; got != kernel.MaxReleaseBatch+1 {
		t.Fatalf("%d releases, want %d", got, kernel.MaxReleaseBatch+1)
	}
	snap := set.Snapshot()
	if snap["kernel.admission.admitted"] != snap["kernel.syscalls"] {
		t.Fatalf("admitted %d of %d crossings", snap["kernel.admission.admitted"], snap["kernel.syscalls"])
	}
}

// heldInOrder lists what fs holds in ReleaseAll's order, computed the
// plain way: depth below the root, then inode number.
func heldInOrder(fs *FS) []uint64 {
	depth := func(ino uint64) (d int) {
		for ; ino != layout.RootIno; d++ {
			v, _ := fs.mtab.Load(ino)
			ino = v.(*minode).parent.Load()
		}
		return d
	}
	var inos []uint64
	fs.mtab.Range(func(k, v any) bool {
		if !v.(*minode).released.Load() {
			inos = append(inos, k.(uint64))
		}
		return true
	})
	sort.Slice(inos, func(i, j int) bool {
		if di, dj := depth(inos[i]), depth(inos[j]); di != dj {
			return di < dj
		}
		return inos[i] < inos[j]
	})
	return inos
}

// TestVectoredReleaseMatchesSingleReleases: handing a tree back in one
// vectored ReleaseAll and handing it back one ReleaseInode at a time, in
// the same order, leave byte-identical devices — shadow table included —
// and the same allocator and quota accounting.
func TestVectoredReleaseMatchesSingleReleases(t *testing.T) {
	run := func(release func(*FS) error) (*pmem.Device, *kernel.Controller) {
		dev := pmem.New(16<<20, nil)
		ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		w := th(t, fs)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		write := func(path string, blocks int) {
			t.Helper()
			fd, err := w.Open(path)
			must(err)
			_, err = w.WriteAt(fd, bytes.Repeat([]byte{byte(len(path))}, blocks*layout.PageSize), 0)
			must(err)
			must(w.Close(fd))
		}
		must(w.Mkdir("/a"))
		must(w.Mkdir("/a/b"))
		must(w.Mkdir("/c"))
		for _, p := range []string{"/a/f0", "/a/f1", "/a/b/g0", "/a/b/g1", "/c/h0", "/top"} {
			must(w.Create(p))
			write(p, 3)
		}
		must(release(fs))
		must(w.Unlink("/a/f0"))
		must(w.Rename("/a/b/g0", "/a/b/g2"))
		must(w.Truncate("/a/b/g1", layout.PageSize))
		must(w.Create("/c/h1"))
		must(w.Mkdir("/c/d"))
		must(w.Create("/c/d/deep"))
		write("/top", 5)
		must(release(fs))
		fs.ReturnGrants()
		return dev, ctrl
	}
	devV, ctrlV := run((*FS).ReleaseAll)
	var dirs, dirRuns int64 // in the release lists, the vectored batches
	devS, ctrlS := run(func(fs *FS) error {
		fs.dom.Barrier()
		var first error
		prevDir := false
		for _, ino := range heldInOrder(fs) {
			v, _ := fs.mtab.Load(ino)
			isDir := v.(*minode).typ == layout.TypeDir
			if isDir {
				dirs++
				if !prevDir {
					dirRuns++
				}
			}
			prevDir = isDir
			if err := fs.ReleaseInode(ino); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
	if !bytes.Equal(devV.Slice(0, devV.Size()), devS.Slice(0, devS.Size())) {
		t.Fatal("device images differ between the vectored and the single-inode release")
	}
	if v, s := ctrlV.FreeCount(), ctrlS.FreeCount(); v != s {
		t.Fatalf("free pages: vectored %d, single %d", v, s)
	}
	if v, s := fmt.Sprint(ctrlV.Usage()), fmt.Sprint(ctrlS.Usage()); v != s {
		t.Fatalf("usage: vectored %s, single %s", v, s)
	}
	// Crossings are what vectoring saves, and with them exclusive epochs: a
	// single release takes one per directory, a batch one per run of
	// consecutive directories, which it keeps (downgraded to shared while
	// files follow) to its commit.
	v, s := ctrlV.Stats.Snapshot(), ctrlS.Stats.Snapshot()
	if v.Syscalls >= s.Syscalls {
		t.Fatalf("vectored release made %d crossings, single %d", v.Syscalls, s.Syscalls)
	}
	if want := s.EpochExclusive - dirs + dirRuns; dirRuns == 0 || v.EpochExclusive != want {
		t.Fatalf("vectored release took %d exclusive epochs, want %d (single %d, %d directories in %d runs)",
			v.EpochExclusive, want, s.EpochExclusive, dirs, dirRuns)
	}
	v.Syscalls, s.Syscalls, v.EpochExclusive, s.EpochExclusive = 0, 0, 0, 0
	if v != s {
		t.Fatalf("kernel counters beyond crossings differ: vectored %+v, single %+v", v, s)
	}
}

// TestReleaseAllIsolatesVerificationFailure: one inode of the batch fails
// verification; ReleaseAll returns that error, the kernel applies its
// policy to that inode alone, and every other inode is released.
func TestReleaseAllIsolatesVerificationFailure(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	w := th(t, fs)
	var inos []uint64
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := w.Create(p); err != nil {
			t.Fatal(err)
		}
		st, _ := w.Stat(p)
		inos = append(inos, st.Ino)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	for i := range inos { // take them all back
		if err := w.Truncate(fmt.Sprintf("/f%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	bad := inos[2]
	in, _, _ := layout.ReadInode(fs.dev, fs.geo, bad)
	in.UID = 7 // a field no LibFS may change
	layout.WriteInode(fs.dev, fs.geo, bad, &in)
	fs.dev.Persist(layout.InodeOff(fs.geo, bad), layout.InodeSize)

	before := fs.ctrl.Stats.Snapshot()
	err := fs.ReleaseAll()
	if !kernel.IsVerificationError(err) {
		t.Fatalf("ReleaseAll = %v, want the forged inode's verification failure", err)
	}
	d := fs.ctrl.Stats.Snapshot()
	if d.Releases-before.Releases != 5 || d.VerifyFailures-before.VerifyFailures != 1 || d.Rollbacks-before.Rollbacks != 1 {
		t.Fatalf("%d releases, %d failures, %d rollbacks; want 5, 1, 1",
			d.Releases-before.Releases, d.VerifyFailures-before.VerifyFailures, d.Rollbacks-before.Rollbacks)
	}
	for _, ino := range inos {
		v, _ := fs.mtab.Load(ino)
		mi := v.(*minode)
		if !mi.released.Load() {
			t.Fatalf("inode %d not released", ino)
		}
		if got, want := mi.mapping.Load().Valid(), ino != bad; got != want {
			t.Fatalf("inode %d: mapping valid = %v, want %v", ino, got, want)
		}
	}
	// The leases were won back without a crossing, so the baseline is what
	// the first ReleaseAll verified: an empty file.
	if rolled, _, _ := layout.ReadInode(fs.dev, fs.geo, bad); rolled.UID != 0 || rolled.Size != 0 {
		t.Fatalf("forged inode after rollback: uid %d size %d, want the last verified state", rolled.UID, rolled.Size)
	}
}

// TestReleaseAllLockOrderStress: ReleaseAll holds the locks of every inode
// it hands back at once. Threads keep creating, renaming, writing,
// truncating and removing the very inodes two concurrent ReleaseAll loops
// release. Nothing may deadlock, no operation may meet an unmapped inode
// (§4.3), and every release must verify. Run under -race at GOMAXPROCS 1,
// 2 and 4.
func TestReleaseAllLockOrderStress(t *testing.T) {
	fs := newFS(t, BugsNone, nil)
	setup := th(t, fs)
	for _, d := range []string{"/s", "/s/x", "/s/y"} {
		if err := setup.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 120
	benign := func(err error) bool {
		return err == nil || errors.Is(err, fsapi.ErrExist) || errors.Is(err, fsapi.ErrNotExist) ||
			errors.Is(err, fsapi.ErrNotEmpty) || errors.Is(err, fsapi.ErrNotDir) || errors.Is(err, fsapi.ErrIsDir)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, workers+2)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := fs.NewThread(g).(*Thread)
			defer w.Detach()
			buf := bytes.Repeat([]byte{byte(g)}, 3*layout.PageSize)
			for i := 0; i < rounds; i++ {
				// The directories are shared; the names in them are the
				// worker's own (an unlink under another thread's open
				// descriptor is a different test).
				dir := []string{"/s", "/s/x", "/s/y"}[(g+i)%3]
				f := fmt.Sprintf("%s/f%d-%d", dir, g, i%5)
				sub := fmt.Sprintf("%s/d%d-%d", dir, g, i%3)
				ops := []func() error{
					func() error { return w.Create(f) },
					func() error {
						fd, err := w.Open(f)
						if err != nil {
							return err
						}
						defer w.Close(fd)
						_, err = w.WriteAt(fd, buf, int64(i%4)*layout.PageSize)
						return err
					},
					func() error { return w.Truncate(f, uint64(i%3)*layout.PageSize) },
					func() error { return w.Rename(f, f+"r") },
					func() error { return w.Unlink(f + "r") },
					func() error { return w.Mkdir(sub) },
					func() error { return w.Rmdir(sub) },
					func() error { return w.Unlink(f) },
				}
				for k, op := range ops {
					if err := op(); !benign(err) {
						errs <- fmt.Errorf("worker %d round %d op %d: %w", g, i, k, err)
						return
					}
				}
			}
		}(g)
	}
	var releasers sync.WaitGroup
	for r := 0; r < 2; r++ {
		releasers.Add(1)
		go func() {
			defer releasers.Done()
			for !stop.Load() {
				if err := fs.ReleaseAll(); err != nil {
					errs <- fmt.Errorf("ReleaseAll: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	releasers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("final ReleaseAll: %v", err)
	}
	fs.Domain().Barrier()
	if rep, err := kernel.Fsck(fs.dev, kernel.Options{}); err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", rep, err)
	}
}
