package libfs

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/race"
	"arckfs/internal/telemetry"
)

// faultCtl is the kernel made to fail on demand: the k-th call (from 1; 0
// fails none) of a crossing that can fail, and with sticky every call after
// it, returns the error the kernel returns there and does nothing else. A
// kernel out of pages stays out of them: a page grant the LibFS retries
// smaller fails only if the retry does. calls counts those crossings.
// ReturnPages and RenameLockRelease report no failure to the LibFS, so they
// pass through uncounted.
type faultCtl struct {
	kernelCtl
	k, calls int
	sticky   bool
}

func (f *faultCtl) fails() bool {
	f.calls++
	return f.k > 0 && (f.calls == f.k || f.sticky && f.calls > f.k)
}

func (f *faultCtl) AcquireBatch(app kernel.AppID, inos []uint64, sink telemetry.SpanSink, out []*kernel.Mapping) ([]*kernel.Mapping, error) {
	if f.fails() { // another app holds inos[0]
		return out, fmt.Errorf("inode %d held by app %d: %w", inos[0], app+1, fsapi.ErrBusy)
	}
	return f.kernelCtl.AcquireBatch(app, inos, sink, out)
}

func (f *faultCtl) Transfer(app kernel.AppID, inos []uint64, kind kernel.XferKind, sink telemetry.SpanSink, out []kernel.Released) []kernel.Released {
	if f.fails() { // the kernel no longer counts app as the holder
		for _, ino := range inos {
			out = append(out, kernel.Released{Err: fmt.Errorf("inode %d not held by app %d: %w", ino, app, fsapi.ErrPerm)})
		}
		return out
	}
	return f.kernelCtl.Transfer(app, inos, kind, sink, out)
}

func (f *faultCtl) GrantPages(app kernel.AppID, cpu, n int) ([]uint64, error) {
	if f.fails() {
		return nil, fsapi.ErrNoSpace
	}
	return f.kernelCtl.GrantPages(app, cpu, n)
}

func (f *faultCtl) GrantInodes(app kernel.AppID, n int) ([]uint64, error) {
	if f.fails() {
		return nil, fmt.Errorf("app %d: +%d inode grants exceed its quota: %w", app, n, kernel.ErrQuota)
	}
	return f.kernelCtl.GrantInodes(app, n)
}

func (f *faultCtl) RenameLockAcquire(app kernel.AppID) error {
	if f.fails() {
		return fmt.Errorf("kernel: unknown app %d", app)
	}
	return f.kernelCtl.RenameLockAcquire(app)
}

// fsState is what an operation that fails must leave as it found it: the
// names and attributes the application sees, and, once it has released
// everything and returned its page grants, the pages the kernel has free
// and the pages reachable from the root.
type fsState struct {
	names           map[string][]string
	stats           map[string]string
	free, reachable int
}

// reachablePages counts the pages of every inode a walk of the committed
// dentries reaches from the root: tail sets, log pages, map pages, blocks.
func reachablePages(dev *pmem.Device, geo layout.Geometry) int {
	n := 0
	for todo := []uint64{layout.RootIno}; len(todo) > 0; {
		ino := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		in, ok, _ := layout.ReadInode(dev, geo, ino)
		switch {
		case !ok:
		case in.Type == layout.TypeDir:
			n++
			for ti := 0; ti < int(in.NTails); ti++ {
				head := layout.TailHead(dev, in.DataRoot, ti)
				for p := head; p != 0; p = layout.NextPage(dev, p) {
					n++
				}
				if head != 0 {
					layout.ScanTail(dev, head, func(d layout.RawDentry) bool {
						if d.Live {
							todo = append(todo, d.Ino)
						}
						return true
					})
				}
			}
		case in.DataRoot != 0:
			n += len(layout.MapChainPages(dev, in.DataRoot))
			for _, b := range layout.WalkBlockMap(dev, in.DataRoot, layout.BlocksForSize(in.Size)) {
				if b != 0 {
					n++
				}
			}
		}
	}
	return n
}

// faultCase is an operation run with every one of its crossings failed in
// turn, from a state setup builds in the application under test after a
// peer has committed /d, /d/f and /d/e and released them.
type faultCase struct {
	name  string
	opts  Options
	setup func(t *testing.T, ctrl *kernel.Controller, fs *FS, w *Thread)
	op    func(w *Thread) error
	dirs  []string // Readdir'd
	paths []string // Stat'd
}

// run builds the case's state and runs its op with crossing k failed, and
// with sticky every one after it (k < 0: no op at all). It returns the op's
// error, the state after it and the crossings it made. A directory state
// setup left for Mkdir to reuse must still be there after a failed op.
func (c faultCase) run(t *testing.T, k int, sticky bool) (err error, st fsState, calls int) {
	t.Helper()
	dev := pmem.New(16<<20, nil)
	ctrl, ferr := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
	if ferr != nil {
		t.Fatal(ferr)
	}
	peer := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	pw := th(t, peer)
	for _, step := range []error{pw.Mkdir("/d"), pw.Create("/d/f"), pw.Mkdir("/d/e"), peer.ReleaseAll()} {
		if step != nil {
			t.Fatal(step)
		}
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), c.opts)
	fc := &faultCtl{kernelCtl: fs.ctrl}
	fs.ctrl = fc
	w := th(t, fs)
	if c.setup != nil {
		c.setup(t, ctrl, fs, w)
	}
	spare, _ := fs.spareDirs.Get().(*dirState)
	if spare != nil {
		fs.spareDirs.Put(spare)
	}
	if k >= 0 {
		fc.calls, fc.k, fc.sticky = 0, k, sticky
		err = c.op(w)
		calls, fc.k = fc.calls, 0
	}
	if err != nil && spare != nil && !race.Enabled {
		// (The race detector's sync.Pool drops what it is given at random.)
		if got, _ := fs.spareDirs.Get().(*dirState); got != spare {
			t.Errorf("crossing %d failed (sticky %v): the spare directory state is lost", k, sticky)
		} else {
			fs.spareDirs.Put(got)
		}
	}
	st = fsState{names: map[string][]string{}, stats: map[string]string{}}
	for _, d := range c.dirs {
		names, rerr := w.Readdir(d)
		st.names[d] = append(names, fmt.Sprint(rerr))
	}
	for _, p := range c.paths {
		s, serr := w.Stat(p)
		st.stats[p] = fmt.Sprintf("%+v %v", s, serr)
	}
	if rerr := fs.ReleaseAll(); rerr != nil {
		t.Fatalf("crossing %d failed (sticky %v): ReleaseAll: %v", k, sticky, rerr)
	}
	fs.ReturnGrants()
	st.free, st.reachable = ctrl.FreeCount(), reachablePages(dev, ctrl.Geometry())
	if rep, ferr := kernel.Fsck(dev, kernel.Options{}); ferr != nil || !rep.Clean() {
		t.Fatalf("crossing %d failed (sticky %v): fsck: %v %v", k, sticky, rep, ferr)
	}
	return err, st, calls
}

// TestMkdirRmdirAllOrNothing fails each crossing Mkdir and Rmdir make, one
// at a time, with the kernel's own error for it: the operation fails and
// leaves the file system as it found it, or it recovers and leaves it as
// it does when nothing fails.
func TestMkdirRmdirAllOrNothing(t *testing.T) {
	// A sync.Pool hands a Get what a Put on the same processor left, and
	// keeps it while the collector is off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dirs, paths := []string{"/", "/d", "/q"}, []string{"/d", "/d/e", "/d/new", "/q", "/q/x"}
	must := func(t *testing.T, errs ...error) {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []faultCase{
		{name: "mkdir", op: func(w *Thread) error { return w.Mkdir("/d/new") }},
		{name: "rmdir", op: func(w *Thread) error { return w.Rmdir("/d/e") }},
		{name: "rmdir of a directory another app touched", setup: func(t *testing.T, ctrl *kernel.Controller, fs *FS, w *Thread) {
			must(t, w.Mkdir("/d/e/g"), w.Rmdir("/d/e/g"), fs.ReleaseAll())
			peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
			_, err := peer.Readdir("/d/e")
			must(t, err, peer.fs.ReleaseAll())
		}, op: func(w *Thread) error { return w.Rmdir("/d/e") }},
		// Grants of two pages leave one, the tail-set page /p/s gave back,
		// for the tail-set page of /q/x: the log page of the empty /q is
		// granted after Mkdir has taken the state /p/s left.
		{name: "mkdir onto a spare state", opts: Options{GrantPageBatch: 1}, setup: func(t *testing.T, _ *kernel.Controller, fs *FS, w *Thread) {
			must(t, w.Mkdir("/p"), w.Mkdir("/q"), w.Mkdir("/p/s"), w.Rmdir("/p/s"))
			fs.dom.Barrier()
		}, op: func(w *Thread) error { return w.Mkdir("/q/x") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.dirs, c.paths = dirs, paths
			_, before, _ := c.run(t, -1, false)
			err, after, crossings := c.run(t, 0, false)
			if err != nil {
				t.Fatalf("with no crossing failed: %v", err)
			}
			if crossings == 0 {
				t.Fatal("the operation made no crossing that can fail")
			}
			for _, sticky := range []bool{false, true} {
				failed := 0
				for k := 1; k <= crossings; k++ {
					err, got, _ := c.run(t, k, sticky)
					want := after
					if err != nil {
						failed++
						want = before
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("crossing %d of %d failed (sticky %v, op error %v):\n got %+v\nwant %+v", k, crossings, sticky, err, got, want)
					}
				}
				t.Logf("%d crossings, sticky %v: %d failures reported", crossings, sticky, failed)
			}
		})
	}
}
