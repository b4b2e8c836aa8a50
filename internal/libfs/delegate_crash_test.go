package libfs

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// delegatedCase is one delegated write on a committed file: an append
// into fresh blocks, or an in-place overwrite with both edges ragged. The
// appended-to file already holds one committed block, because recovery
// rolls an inode whose map root the kernel never verified back to its
// shadow: an append to an empty file has no new state to recover.
type delegatedCase struct {
	name   string
	oldLen int
	off    int64
	n      int
}

var delegatedCases = []delegatedCase{
	{"append", layout.PageSize, layout.PageSize, DelegationThreshold + layout.PageSize + 100},
	{"overwrite", 5000 + DelegationThreshold + 17 + 3000, 5000, DelegationThreshold + 17},
}

// delegatedRig is a booted FS with the case's file committed and open,
// the device tracked, and the write not yet issued.
type delegatedRig struct {
	tc       delegatedCase
	dev      *pmem.Device
	w        *Thread
	fd       fsapi.FD
	mi       *minode
	blob     []byte
	old, new []byte // whole-file contents before and after the write
}

func bootDelegated(t *testing.T, tc delegatedCase) *delegatedRig {
	t.Helper()
	dev := pmem.New(4<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(ctrl, ctrl.RegisterApp(0, 0), Options{})
	r := &delegatedRig{tc: tc, dev: dev, w: th(t, fs)}
	dirtyPool(t, r.w, tc.n+2*layout.PageSize) // unwritten data must not pass for a hole
	if err := r.w.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if r.fd, err = r.w.Open("/f"); err != nil {
		t.Fatal(err)
	}
	r.old = make([]byte, tc.oldLen)
	for i := range r.old {
		r.old[i] = byte(i*7 + 3)
	}
	if _, err := r.w.WriteAt(r.fd, r.old, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReleaseAll(); err != nil { // committed: the old state is the durable baseline
		t.Fatal(err)
	}
	if r.mi, err = r.w.lookupFD(r.fd); err != nil {
		t.Fatal(err)
	}
	r.blob = make([]byte, tc.n)
	for i := range r.blob {
		r.blob[i] = byte(i*31+11) | 0x80 // differs from zero and from old
	}
	r.new = append([]byte(nil), r.old...)
	if need := int(tc.off) + tc.n; need > len(r.new) {
		r.new = append(r.new, make([]byte, need-len(r.new))...)
	}
	copy(r.new[tc.off:], r.blob)
	dev.EnableTracking()
	return r
}

// write issues the delegated write, running obs at every fence.
func (r *delegatedRig) write(t *testing.T, obs func()) {
	t.Helper()
	r.dev.SetObserver(pmem.OnFence(obs))
	_, err := r.w.WriteAt(r.fd, r.blob, r.tc.off)
	r.dev.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
}

// devLine returns the device offset of the cache line holding fileOff, or
// -1 while its block is unallocated.
func (r *delegatedRig) devLine(fileOff int64) int64 {
	arr := r.mi.file.Load().blockArr()
	bi := int(fileOff / layout.PageSize)
	if bi >= len(arr) || arr[bi].Load() == 0 {
		return -1
	}
	return int64(arr[bi].Load()*layout.PageSize) + fileOff%layout.PageSize/pmem.LineSize*pmem.LineSize
}

// dataLines returns the device lines the write stores to, or nil while a
// block is still unallocated.
func (r *delegatedRig) dataLines() map[int64]bool {
	lines := map[int64]bool{}
	for fo := r.tc.off / pmem.LineSize * pmem.LineSize; fo < r.tc.off+int64(r.tc.n); fo += pmem.LineSize {
		l := r.devLine(fo)
		if l < 0 {
			return nil
		}
		lines[l] = true
	}
	return lines
}

// recoverFile mounts img, requires a clean recovery, and returns /f — or
// the error with which the recovered kernel refuses to hand /f out.
func recoverFile(t *testing.T, what string, img []byte) ([]byte, error) {
	t.Helper()
	rdev := pmem.Restore(img, nil)
	rctrl, rep, err := kernel.Mount(rdev, kernel.Options{}, true)
	if err != nil {
		t.Fatalf("%s: mount: %v", what, err)
	}
	if rep.CorruptDentries != 0 {
		t.Fatalf("%s: torn dentry: %s", what, rep)
	}
	if rep2, err := kernel.Fsck(rdev, kernel.Options{}); err != nil || !rep2.Clean() {
		t.Fatalf("%s: fsck after repair: %v %v", what, rep2, err)
	}
	rt := th(t, New(rctrl, rctrl.RegisterApp(0, 0), Options{}))
	st, err := rt.Stat("/f")
	if err != nil {
		return nil, err
	}
	fd, err := rt.Open("/f")
	if err != nil {
		t.Fatalf("%s: open: %v", what, err)
	}
	got := make([]byte, st.Size)
	if n, err := rt.ReadAt(fd, got, 0); err != nil || n != len(got) {
		t.Fatalf("%s: read: %d, %v", what, n, err)
	}
	return got, nil
}

// staleLines returns the file offsets of the lines of got that are
// neither old's nor new's (old may be shorter: it reads as zeroes).
func staleLines(got, old, new []byte) []int64 {
	var stale []int64
	for lo := 0; lo < len(got); lo += pmem.LineSize {
		hi := min(lo+pmem.LineSize, len(got))
		was := make([]byte, hi-lo)
		if lo < len(old) {
			copy(was, old[lo:min(hi, len(old))])
		}
		if !bytes.Equal(got[lo:hi], new[lo:hi]) && !bytes.Equal(got[lo:hi], was) {
			stale = append(stale, int64(lo))
		}
	}
	return stale
}

func goid() string {
	var b [64]byte
	return string(bytes.Fields(b[:runtime.Stack(b[:], false)])[1])
}

// TestDelegatedWriteCrashStates enumerates crash images at every fence of
// a delegated append and a delegated in-place overwrite. The workers only
// stream, so the coordinator must be the one thread that ever fences; every
// image must recover fsck-clean; the append recovers the old size or the
// new size with all the new bytes — never a block pointer over unwritten
// data, never a hole — and the overwrite recovers old-or-new bytes line by
// line. A map entry persisted without the size is trimmed by recovery.
func TestDelegatedWriteCrashStates(t *testing.T) {
	for _, tc := range delegatedCases {
		t.Run(tc.name, func(t *testing.T) {
			r := bootDelegated(t, tc)
			coordinator := goid()
			grows := len(r.new) > len(r.old)
			images, sawOld, sawNew := 0, false, false
			// Each image is judged as it is taken: a data epoch's corners
			// cost hundreds of images, too many to keep.
			check := func(img []byte) {
				i := images
				images++
				got, err := recoverFile(t, tc.name, img)
				if err != nil {
					t.Fatalf("image %d: %v", i, err)
				}
				if len(got) != len(r.old) && len(got) != len(r.new) {
					t.Fatalf("image %d: recovered size %d, want %d or %d", i, len(got), len(r.old), len(r.new))
				}
				sawOld = sawOld || bytes.Equal(got, r.old)
				sawNew = sawNew || bytes.Equal(got, r.new)
				if !grows || len(got) == len(r.old) {
					if stale := staleLines(got, r.old, r.new); len(stale) > 0 {
						t.Fatalf("image %d: %d lines neither old nor new, first at file offset %d", i, len(stale), stale[0])
					}
					return
				}
				// The new size is durable, so is the map before it: every
				// block must hold the new bytes. The pool pages were junk,
				// so an unwritten one cannot pass for them.
				for lo := len(r.old); lo < len(got); lo += layout.PageSize {
					if hi := min(lo+layout.PageSize, len(got)); !bytes.Equal(got[lo:hi], r.new[lo:hi]) {
						t.Fatalf("image %d: block at file offset %d does not hold the new bytes (a hole: %v)", i, lo, len(bytes.TrimLeft(got[lo:hi], "\x00")) == 0)
					}
				}
			}
			r.write(t, func() {
				if g := goid(); g != coordinator {
					t.Errorf("goroutine %s fenced; only the coordinator (%s) may", g, coordinator)
					return
				}
				// A data epoch holds thousands of dirty lines: its corners
				// are the first, middle and last line's, plus seeded samples.
				corners, _ := r.dev.CrashImages(r.dev.DirtyLineStates(), pmem.CrashDropAll, 0, int64(images))
				for _, img := range corners {
					check(img)
				}
			})
			if images < 14 {
				t.Fatalf("captured only %d images", images)
			}
			if !sawOld || !sawNew {
				t.Fatalf("enumeration is vacuous: old state seen %v, new state seen %v", sawOld, sawNew)
			}
			// And once the write returned, nothing is left to lose.
			if got, err := recoverFile(t, tc.name, r.dev.CrashImage(pmem.CrashDropAll)); err != nil || !bytes.Equal(got, r.new) {
				t.Fatalf("the completed write is not durable (%v)", err)
			}
		})
	}
}

// TestDelegatedWriteLiesReportAlike runs the two writes on a lying device
// and requires each lie to surface as it would on any line: a dropped
// write-back aimed at one interior line the workers streamed is counted
// once, leaves exactly that line dirty past the final fence and stale in
// the recovered file; a line torn at power failure in the data epoch is
// counted once. That a streamed line lies exactly like a store + clwb'd
// one is pmem.TestStreamedLineLiesLikeFlushedLine.
func TestDelegatedWriteLiesReportAlike(t *testing.T) {
	for _, tc := range delegatedCases {
		target := (tc.off + 128<<10) / pmem.LineSize * pmem.LineSize // an interior line, by file offset

		r := bootDelegated(t, tc)
		plan := pmem.NewFaultPlan(pmem.FaultDropFlush, 1)
		plan.FlushEvery = 1
		plan.Filter = func(lineOff int64) bool { return lineOff == r.devLine(target) }
		r.dev.SetFaultPlan(plan)
		r.write(t, func() {})
		if lied, dirty := r.dev.Stats.LiedFlushes.Load(), r.dev.DirtyLines(); lied != 1 || !reflect.DeepEqual(dirty, []int64{r.devLine(target)}) {
			t.Fatalf("%s: %d lied flushes, dirty after the write %v; want 1 and the aimed line %d",
				tc.name, lied, dirty, r.devLine(target))
		}
		file, err := recoverFile(t, tc.name, r.dev.CrashImage(pmem.CrashDropAll))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The new size is durable over one line the device never wrote.
		if len(file) != len(r.new) || bytes.Equal(file, r.new) {
			t.Fatalf("%s: the dropped write-back is invisible after recovery", tc.name)
		}
		for i := range file {
			if file[i] != r.new[i] && int64(i)/pmem.LineSize*pmem.LineSize != target {
				t.Fatalf("%s: byte %d is stale, outside the aimed line", tc.name, i)
			}
		}

		r = bootDelegated(t, tc)
		r.dev.SetFaultPlan(pmem.NewFaultPlan(pmem.FaultTearLine, 7))
		var img []byte
		r.write(t, func() {
			data := r.dataLines()
			if img != nil || data == nil {
				return
			}
			dirty := 0
			for _, l := range r.dev.DirtyLines() {
				if data[l] {
					dirty++
				}
			}
			if dirty < len(data) {
				return // not the data epoch's fence
			}
			img = r.dev.CrashImage(func(off int64, versions int) int {
				if data[off] {
					return versions
				}
				return 0
			})
		})
		if torn := r.dev.Stats.TornLines.Load(); img == nil || torn != 1 {
			t.Fatalf("%s: %d torn lines, image taken %v", tc.name, torn, img != nil)
		}
	}
}
