package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/verifier"
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
	data            map[string]string
	free, reachable int
}

// diff lists what differs between st and want, one line each, or is
// empty. Up to linked pages may have moved from free to reachable.
func (st fsState) diff(want fsState, linked int) string {
	var b strings.Builder
	for _, m := range []struct {
		got, want map[string]string
	}{{st.stats, want.stats}, {st.data, want.data}} {
		for k, v := range m.want {
			if m.got[k] != v {
				fmt.Fprintf(&b, "\n  %s: %s\n  %s  %s", k, m.got[k], strings.Repeat(" ", len(k)), v)
			}
		}
	}
	for d, v := range want.names {
		if !reflect.DeepEqual(st.names[d], v) {
			fmt.Fprintf(&b, "\n  readdir %s: %v, %v", d, st.names[d], v)
		}
	}
	if st.free+st.reachable != want.free+want.reachable || st.reachable < want.reachable || st.reachable > want.reachable+linked {
		fmt.Fprintf(&b, "\n  free %d, %d; reachable %d, %d", st.free, want.free, st.reachable, want.reachable)
	}
	return b.String()
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
	// partial, if set, returns an op that does what the op that last
	// failed documents it left done (a batch's first names), or nil if
	// that is nothing.
	partial func() func(w *Thread) error
	// mayLink is how many pages a failed op may leave linked into a
	// directory it wrote to and then undid: a log page holding only a dead
	// record, still accounted for by free + reachable.
	mayLink int
	dirs    []string // Readdir'd
	paths   []string // Stat'd
	reads   []string // read whole
}

// run builds the case's state and runs its op with crossing k failed, and
// with sticky every one after it (k < 0: no op at all). It returns the op's
// error, the state after it and the crossings it made. A failed op must
// leave at least as many spare directory states, once the grace periods it
// started are over, as it found: one it took for a Mkdir is back, and a
// rebuild that took one retired the state it replaced. (A rebuild that
// found none retired one all the same: there can be more.)
func (c faultCase) run(t *testing.T, k int, sticky bool) (err error, st fsState, calls int) {
	t.Helper()
	dev := pmem.New(16<<20, nil)
	ctrl, ferr := kernel.Format(dev, kernel.Options{Mode: verifier.Enhanced, InodeCap: 1 << 10})
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
	fs.dom.Barrier()
	spares := fs.spareDirs.len()
	if k >= 0 {
		fc.calls, fc.k, fc.sticky = 0, k, sticky
		err = c.op(w)
		calls, fc.k = fc.calls, 0
	}
	if fs.dom.Barrier(); err != nil && fs.spareDirs.len() < spares {
		t.Errorf("crossing %d failed (sticky %v): %d spare directory states, fewer than the %d it found", k, sticky, fs.spareDirs.len(), spares)
	}
	st = fsState{names: map[string][]string{}, stats: map[string]string{}, data: map[string]string{}}
	for _, d := range c.dirs {
		names, rerr := w.Readdir(d)
		st.names[d] = append(names, fmt.Sprint(rerr))
	}
	for _, p := range c.paths {
		s, serr := w.Stat(p)
		st.stats[p] = fmt.Sprintf("%+v %v", s, serr)
	}
	for _, p := range c.reads {
		st.data[p] = readWhole(w, p)
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

// readWhole is the bytes of the file at path, as a checksum and a length,
// or the error reading it met.
func readWhole(w *Thread, path string) string {
	s, err := w.Stat(path)
	if err != nil {
		return err.Error()
	}
	fd, err := w.Open(path)
	if err != nil {
		return err.Error()
	}
	defer w.Close(fd)
	buf := make([]byte, s.Size)
	n, err := w.ReadAt(fd, buf, 0)
	return fmt.Sprintf("%d bytes crc %08x %v", n, crc32.ChecksumIEEE(buf[:n]), err)
}

// check fails each crossing c's op makes, one at a time and from then on,
// with the kernel's own error for it: the op fails and leaves the file
// system as it found it (or as its documented prefix leaves it), or it
// recovers and leaves it as it does when nothing fails.
func (c faultCase) check(t *testing.T) {
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
				if c.partial != nil {
					if redo := c.partial(); redo != nil {
						done := c
						done.op = redo
						_, want, _ = done.run(t, 0, false)
					}
				}
			}
			if d := got.diff(want, c.mayLink); d != "" {
				t.Errorf("crossing %d of %d failed (sticky %v, op error %v): got, want%s", k, crossings, sticky, err, d)
			}
		}
		t.Logf("%d crossings, sticky %v: %d failures reported", crossings, sticky, failed)
	}
}

// TestMkdirRmdirAllOrNothing runs check over Mkdir and Rmdir.
func TestMkdirRmdirAllOrNothing(t *testing.T) {
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
			c.check(t)
		})
	}
}

// TestOpsAllOrNothing runs check over the other operations that cross:
// Create, Unlink, Rename, WriteAt, Truncate, CreateBatch, CommitInode, and
// a write whose mapping the kernel revoked. Grants of one page or one inode
// make the page and inode grants cross once per resource.
func TestOpsAllOrNothing(t *testing.T) {
	dirs, paths := []string{"/", "/d", "/d/e", "/q", "/q/e"}, []string{"/d/f", "/d/g", "/d/e/f", "/d/new", "/d/a", "/d/b", "/d/c"}
	one := Options{GrantPageBatch: 1, GrantInoBatch: 1}
	page := make([]byte, layout.PageSize)
	for i := range page {
		page[i] = byte(i) | 1
	}
	write := func(n int) func(w *Thread) error {
		return func(w *Thread) error {
			fd, err := w.Open("/d/f")
			if err != nil {
				return err
			}
			defer w.Close(fd)
			for i := range n {
				if _, err := w.WriteAt(fd, page, int64(i)*layout.PageSize); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// setupWrite leaves /d/f holding n pages, released.
	setupWrite := func(n int) func(t *testing.T, _ *kernel.Controller, fs *FS, w *Thread) {
		return func(t *testing.T, _ *kernel.Controller, fs *FS, w *Thread) {
			if err := write(n)(w); err != nil {
				t.Fatal(err)
			}
			if err := fs.ReleaseAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var fd fsapi.FD
	openF := func(t *testing.T, _ *kernel.Controller, _ *FS, w *Thread) {
		var err error
		if fd, err = w.Open("/d/f"); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 5*layout.PageSize)
	for i := range big {
		big[i] = byte(i*7) | 1
	}
	names, made := []string{"a", "b", "c"}, 0
	readF := func(w *Thread) error {
		fd, err := w.Open("/d/f")
		if err != nil {
			return err
		}
		defer w.Close(fd)
		_, err = w.ReadAt(fd, page, 0)
		return err
	}
	for _, c := range []faultCase{
		// A peer took back what the app held: the op's first lease miss
		// asks for it all in one AcquireBatch.
		{name: "create after a lease miss", setup: stolen, op: func(w *Thread) error { return w.Create("/d/new") }},
		{name: "open and read after a lease miss", setup: stolen, op: readF},
		{name: "release all", setup: func(t *testing.T, _ *kernel.Controller, fs *FS, w *Thread) {
			if err := w.Create("/d/new"); err != nil {
				t.Fatal(err)
			}
		}, op: func(w *Thread) error { return w.fs.ReleaseAll() }},
		{name: "create", opts: one, op: func(w *Thread) error { return w.Create("/d/new") }},
		{name: "unlink", op: func(w *Thread) error { return w.Unlink("/d/f") }},
		{name: "rename", op: func(w *Thread) error { return w.Rename("/d/f", "/d/g") }},
		// Undone after its last crossing fails, a move leaves the first log
		// page of the empty new parent behind.
		{name: "rename across directories", mayLink: 1, op: func(w *Thread) error { return w.Rename("/d/f", "/d/e/f") }},
		{name: "rename a directory across directories", mayLink: 1, setup: func(t *testing.T, _ *kernel.Controller, fs *FS, w *Thread) {
			if err := w.Mkdir("/q"); err != nil {
				t.Fatal(err)
			}
		}, op: func(w *Thread) error { return w.Rename("/d/e", "/q/e") }},
		{name: "write", opts: one, setup: openF, op: func(w *Thread) error {
			_, err := w.WriteAt(fd, big, 0)
			return err
		}},
		{name: "write past the end", opts: one, setup: setupWrite(2), op: func(w *Thread) error {
			fd, err := w.Open("/d/f")
			if err != nil {
				return err
			}
			_, err = w.WriteAt(fd, big, layout.PageSize+100)
			return err
		}},
		{name: "truncate up", opts: one, op: func(w *Thread) error { return w.Truncate("/d/f", 1100*layout.PageSize) }},
		// The kernel revoked the app's mapping of /d/f when a peer took the
		// file after its lease lapsed: the write remaps it in one acquire.
		{name: "write after a revoked mapping", opts: one, setup: revoked(&fd), op: func(w *Thread) error {
			_, err := w.WriteAt(fd, page, layout.PageSize)
			return err
		}},
		// A fresh file commits its parent twice (the parent itself, then
		// the entry that names the file) and then itself.
		{name: "commit", setup: func(t *testing.T, _ *kernel.Controller, _ *FS, w *Thread) {
			if err := w.Create("/d/new"); err != nil {
				t.Fatal(err)
			}
		}, op: func(w *Thread) error { return w.fs.CommitInode(w, "/d/new") }},
		{name: "create batch", opts: one, op: func(w *Thread) error {
			var err error
			made, err = w.CreateBatch("/d", names)
			return err
		}, partial: func() func(w *Thread) error {
			if made == 0 {
				return nil
			}
			n := made
			return func(w *Thread) error {
				_, err := w.CreateBatch("/d", names[:n])
				return err
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.dirs, c.paths, c.reads = dirs, paths, []string{"/d/f", "/d/g", "/d/e/f"}
			c.check(t)
		})
	}
}

// revoked leaves *fd open on /d/f, which the app wrote, and whose mapping
// the kernel revoked when a peer took the file after the app's lease
// lapsed. The app released / and /d before, so only the file was taken
// from it; the peer has released all three since.
func revoked(fd *fsapi.FD) func(t *testing.T, ctrl *kernel.Controller, fs *FS, w *Thread) {
	return func(t *testing.T, ctrl *kernel.Controller, fs *FS, w *Thread) {
		t.Helper()
		now := time.Now()
		ctrl.SetClock(func() time.Time { return now })
		peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
		b := []byte("held")
		var err error
		if *fd, err = w.Open("/d/f"); err == nil {
			_, err = w.WriteAt(*fd, b, 0)
		}
		d, derr := w.Stat("/d")
		for _, err := range []error{err, derr, fs.ReleaseInode(layout.RootIno), fs.ReleaseInode(d.Ino)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		now = now.Add(time.Minute)
		pfd, err := peer.Open("/d/f")
		if err == nil {
			_, err = peer.WriteAt(pfd, b, 0)
		}
		for _, err := range []error{err, peer.fs.ReleaseAll()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		mi, err := w.lookupFD(*fd)
		if err != nil || !mi.unmapped() {
			t.Fatalf("/d/f: %v, unmapped %v; want its mapping revoked", err, mi != nil && mi.unmapped())
		}
	}
}

// TestRefusedRemapReportsTheKernel: a read or write whose mapping the
// kernel revoked, and whose re-acquire the kernel refuses, fails with the
// kernel's error. Both reported the simulated bus error of the revoked
// mapping instead, the crash ArckFS+ exists to avoid.
func TestRefusedRemapReportsTheKernel(t *testing.T) {
	ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{Mode: verifier.Enhanced, InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w := th(t, fs)
	for _, err := range []error{w.Mkdir("/d"), w.Create("/d/f"), fs.ReleaseAll()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var fd fsapi.FD
	revoked(&fd)(t, ctrl, fs, w)
	fc := &faultCtl{kernelCtl: fs.ctrl, k: 1, sticky: true}
	fs.ctrl = fc
	buf := make([]byte, 4)
	if _, err := w.ReadAt(fd, buf, 0); !errors.Is(err, fsapi.ErrBusy) {
		t.Errorf("read with its remap refused: %v, want %v", err, fsapi.ErrBusy)
	}
	if _, err := w.WriteAt(fd, buf, 0); !errors.Is(err, fsapi.ErrBusy) {
		t.Errorf("write with its remap refused: %v, want %v", err, fsapi.ErrBusy)
	}
}

// TestReleaseAllSkipsARevokedInode: a ReleaseAll after the kernel revoked
// the mapping of a held file succeeds, and leaves the file to its next
// touch, which takes it back and writes it. It handed the kernel the
// revoked inode, and failed with the kernel's "not held" error.
func TestReleaseAllSkipsARevokedInode(t *testing.T) {
	ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{Mode: verifier.Enhanced, InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	w := th(t, fs)
	for _, err := range []error{w.Mkdir("/d"), w.Create("/d/f"), fs.ReleaseAll()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var fd fsapi.FD
	revoked(&fd)(t, ctrl, fs, w)
	if err := fs.ReleaseAll(); err != nil {
		t.Fatalf("ReleaseAll after the revoke: %v", err)
	}
	want := []byte("back")
	if _, err := w.WriteAt(fd, want, 0); err != nil {
		t.Fatalf("the write after the release: %v", err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	r := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	got := make([]byte, len(want))
	rfd, err := r.Open("/d/f")
	if err == nil {
		_, err = r.ReadAt(rfd, got, 0)
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a peer reads /d/f: %q, %v; want %q", got, err, want)
	}
}

// stolen leaves the app holding nothing after a hold in which it lost
// /, /d and /d/f to a lease miss, and a peer has taken all three since: the
// app's next lease miss asks for the three in one AcquireBatch.
func stolen(t *testing.T, ctrl *kernel.Controller, fs *FS, w *Thread) {
	t.Helper()
	peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	block := make([]byte, layout.PageSize)
	touch := func(w *Thread, name string) {
		t.Helper()
		fd, err := w.Open("/d/f")
		if err == nil {
			_, err = w.WriteAt(fd, block, 0)
			w.Close(fd)
		}
		for _, err := range []error{err, w.Create("/d/" + name), w.Unlink("/d/" + name), w.fs.ReleaseAll()} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	touch(w, "own")
	touch(peer, "peer")
	touch(w, "own")
	touch(peer, "peer")
}

// TestRefusedReacquire: lease misses whose AcquireBatch the kernel refuses
// leave the directory states the app retained published and its spare
// states as they were, and the next try rebuilds them. (The miss on / is a
// read's, which falls back to the retained state; the miss on /d fails the
// create.)
func TestRefusedReacquire(t *testing.T) {
	ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{Mode: verifier.Enhanced, InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	peer := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	for _, err := range []error{peer.Mkdir("/d"), peer.Create("/d/f"), peer.fs.ReleaseAll()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	fc := &faultCtl{kernelCtl: fs.ctrl}
	fs.ctrl = fc
	w := th(t, fs)
	stolen(t, ctrl, fs, w)
	root, d := fs.inodes.Load(layout.RootIno), (*minode)(nil)
	if root != nil {
		if ino, _, ok, _ := fs.lookupInDir(w, root, "d"); ok {
			d = fs.inodes.Load(ino)
		}
	}
	if d == nil {
		t.Fatal("the app retained no state for / and /d")
	}
	rootDS, dDS := root.dir.peek(), d.dir.peek()
	fs.dom.Barrier()
	spares := fs.spareDirs.len()
	fc.calls, fc.k, fc.sticky = 0, 1, true
	err = w.Create("/d/new")
	fc.k = 0
	fs.dom.Barrier()
	if !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("Create with every crossing refused = %v after %d crossings, want %v", err, fc.calls, fsapi.ErrBusy)
	}
	if root.dir.peek() != rootDS || d.dir.peek() != dDS || fs.spareDirs.len() != spares {
		t.Fatalf("after the refused reacquire: / and /d keep their states %v, %v; %d spares, want %d",
			root.dir.peek() == rootDS, d.dir.peek() == dDS, fs.spareDirs.len(), spares)
	}
	if err := w.Create("/d/new"); err != nil {
		t.Fatal(err)
	}
	if d.dir.peek() == dDS || !slices.Equal(mustNames(t, w, "/d"), []string{"f", "new"}) {
		t.Fatalf("the retried create: /d rebuilt %v, lists %v", d.dir.peek() != dDS, mustNames(t, w, "/d"))
	}
}

// TestWriteRetriedAfterRefusedGrant: a write whose page grant the kernel
// refuses, retried once the kernel grants again, is read back whole by
// another application after the release. A write that kept the pages it
// had taken before the refusal found them in its block index on the
// retry and never persisted their pointers: the peer read zeroes.
func TestWriteRetriedAfterRefusedGrant(t *testing.T) {
	ctrl, err := kernel.Format(pmem.New(16<<20, nil), kernel.Options{Mode: verifier.Enhanced, InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{GrantPageBatch: 1})
	fc := &faultCtl{kernelCtl: fs.ctrl}
	fs.ctrl = fc
	w := th(t, fs)
	if err := w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := w.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 5*layout.PageSize)
	fc.calls, fc.k, fc.sticky = 0, 2, true // the second page grant on
	if _, err := w.WriteAt(fd, want, 0); err == nil {
		t.Fatal("the write succeeded with its second grant refused")
	}
	fc.k = 0
	if _, err := w.WriteAt(fd, want, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	r := th(t, New(ctrl, ctrl.RegisterApp(0, 0), Options{}))
	rfd, err := r.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := r.ReadAt(rfd, got, 0); n != len(want) || err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the peer read %d bytes (%v), equal %v", n, err, bytes.Equal(got, want))
	}
}
