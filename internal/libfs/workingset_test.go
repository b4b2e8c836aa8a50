package libfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// sharers is two applications on one device, one thread each.
type sharers struct {
	t    *testing.T
	ctrl *kernel.Controller
	fss  [2]*FS
	ws   [2]*Thread
}

func newSharers(t *testing.T) *sharers {
	dev := pmem.New(32<<20, nil)
	ctrl, err := kernel.Format(dev, kernel.Options{InodeCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := &sharers{t: t, ctrl: ctrl}
	for a := range s.fss {
		s.fss[a] = New(ctrl, ctrl.RegisterApp(0, 0), Options{})
		s.ws[a] = s.fss[a].NewThread(a).(*Thread)
	}
	return s
}

func (s *sharers) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

func (s *sharers) release(a int) { s.t.Helper(); s.must(s.fss[a].ReleaseAll()) }

// crossings returns the kernel's crossing and acquire counts.
func (s *sharers) crossings() (syscalls, acquires int64) {
	st := s.ctrl.Stats.Snapshot()
	return st.Syscalls, st.Acquires
}

func (s *sharers) minode(a int, path string) *minode {
	s.t.Helper()
	st, err := s.ws[a].Stat(path)
	s.must(err)
	mi := s.fss[a].inodes.Load(st.Ino)
	if mi == nil {
		s.t.Fatalf("app %d has no minode for %s", a, path)
	}
	return mi
}

// prefetchDir leaves app 0 holding the root, taken back by a batch whose
// tail prefetched /h; /h itself is untouched since app 1 changed it, adding
// /h/new and removing /h/old. The batch is one crossing for both inodes.
func (s *sharers) prefetchDir() *minode {
	s.t.Helper()
	s.must(s.ws[0].Mkdir("/h"))
	s.must(s.ws[0].Create("/h/old"))
	s.release(0)
	_, err := s.ws[1].Stat("/h/old") // cold: records nothing
	s.must(err)
	s.release(1)
	s.must(s.ws[0].Create("/h/a0")) // misses root and /h: the working set
	s.release(0)
	h := s.minode(0, "/h")
	s.must(s.ws[1].Create("/h/new"))
	s.must(s.ws[1].Unlink("/h/old"))
	s.release(1)

	sys, acq := s.crossings()
	if _, err := s.ws[0].Stat("/"); err != nil { // touches the root alone
		s.t.Fatal(err)
	}
	if d, a := s.crossings(); d-sys != 1 || a-acq != 2 {
		s.t.Fatalf("the root's miss made %d crossings for %d acquires, want one batch of 2", d-sys, a-acq)
	}
	if !h.released.Load() || h.mapping.Load().Valid() || !h.prefetched.Load().Valid() {
		s.t.Fatalf("/h after the batch: released %v, mapping valid %v, prefetched %v; want a prefetched mapping beside the lost one",
			h.released.Load(), h.mapping.Load().Valid(), h.prefetched.Load())
	}
	return h
}

// TestPrefetchServesNoStaleAux: the batch maps /h, but app 0's aux state for
// it is from before app 1 changed it. The first read-only touch must rebuild
// that state, not trust it: the names app 1 created are there, the ones it
// removed are gone, and taking /h costs no crossing.
func TestPrefetchServesNoStaleAux(t *testing.T) {
	s := newSharers(t)
	h := s.prefetchDir()
	sys, acq := s.crossings()
	if _, err := s.ws[0].Stat("/h/new"); err != nil {
		t.Fatalf("stat of the peer's new name: %v", err)
	}
	if d, a := s.crossings(); d-sys != 1 || a-acq != 1 {
		t.Fatalf("the stat made %d crossings for %d acquires, want 1 for 1: the new file's own", d-sys, a-acq)
	}
	if h.released.Load() || h.prefetched.Load() != nil {
		t.Fatal("the touch left /h released or its prefetched mapping in place")
	}
	if _, err := s.ws[0].Stat("/h/old"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat of the name the peer removed: %v, want ErrNotExist", err)
	}
	names, err := s.ws[0].Readdir("/h")
	if err != nil || !reflect.DeepEqual(names, []string{"a0", "new"}) {
		t.Fatalf("readdir /h = %v, %v", names, err)
	}
}

// TestPrefetchHeldThroughTheHold: the batch took /h from app 1, which
// still has a thread reading it. Until app 0's next release app 1 meets the
// prefetched /h as held — its reads fall back to the aux state it kept,
// its writes get ErrBusy — so it cannot take /h back between the batch and
// app 0's first touch and fail that touch instead. App 0's touch, a write,
// costs no crossing.
func TestPrefetchHeldThroughTheHold(t *testing.T) {
	s := newSharers(t)
	s.prefetchDir()
	stale := s.fss[1].Stats.StaleReads.Load()
	names, err := s.ws[1].Readdir("/h")
	if err != nil || !reflect.DeepEqual(names, []string{"a0", "new"}) {
		t.Fatalf("app 1's readdir /h = %v, %v; want what it kept", names, err)
	}
	if s.fss[1].Stats.StaleReads.Load() == stale {
		t.Fatal("app 1's read of the prefetched /h was not served from its kept aux state")
	}
	if err := s.ws[1].Create("/h/b1"); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("app 1's create in the prefetched /h: %v, want ErrBusy", err)
	}
	sys, _ := s.crossings()
	s.must(s.ws[0].Create("/h/a1"))
	if d, _ := s.crossings(); d != sys {
		t.Fatalf("app 0's create in its prefetched /h made %d crossings, want 0", d-sys)
	}
}

// TestPrefetchReclaimedByPeer: app 0 stays idle after the batch, never
// touching the /h it prefetched. Until app 0's ReleaseAll ends the hold,
// app 1's write to /h fails ErrBusy, as it would had app 0 touched /h; the
// write that follows the release takes /h back without a parse. App 0's
// touch then pays exactly one crossing and reads what app 1 left.
func TestPrefetchReclaimedByPeer(t *testing.T) {
	s := newSharers(t)
	h := s.prefetchDir()
	pre := h.prefetched.Load()
	if err := s.ws[1].Create("/h/late"); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("app 1's create in /h while app 0's hold lasts: %v, want ErrBusy", err)
	}
	s.release(0) // from here the prefetched /h is an ordinary dormant lease
	vs := s.ctrl.VerifierStats()
	parsed := vs.Dentries.Load() + vs.Pages.Load()
	s.must(s.ws[1].Create("/h/late"))
	if vs.Dentries.Load()+vs.Pages.Load() != parsed || s.ctrl.Stats.Involuntary.Load() != 0 {
		t.Fatal("app 1 took the released prefetch back through a parse or an involuntary release")
	}
	s.release(1)
	if pre.Valid() {
		t.Fatal("app 1's acquire of /h left app 0's prefetched mapping established")
	}
	_, err := s.ws[0].Stat("/") // the root's own miss
	s.must(err)
	sys, acq := s.crossings()
	names, err := s.ws[0].Readdir("/h")
	if err != nil || !reflect.DeepEqual(names, []string{"a0", "late", "new"}) {
		t.Fatalf("readdir /h = %v, %v", names, err)
	}
	if d, a := s.crossings(); d-sys != 1 || a-acq != 1 {
		t.Fatalf("the touch after the reclaim made %d crossings for %d acquires, want 1 and 1", d-sys, a-acq)
	}
}

// TestConcurrentMissesOneBatch: two threads of one application miss at
// once, turn after turn, each on its own shared file; then one of them
// writes the rest of the working set. Whichever thread misses first issues
// the batch for all of it — a wide batch, so the other thread arrives while
// it is in flight — and the other waits for it and adopts its prefetched
// mapping. Exactly one crossing a turn, and every write lands. Run under
// -race.
func TestConcurrentMissesOneBatch(t *testing.T) {
	const files, turns = 24, 16
	s := newSharers(t)
	second := s.fss[0].NewThread(2).(*Thread)
	defer second.Detach()
	threads := [2]*Thread{s.ws[0], second}
	writer := func(i int) *Thread { // thread 1 writes file 1, thread 0 the rest
		if i == 1 {
			return second
		}
		return s.ws[0]
	}
	s.must(s.ws[0].Mkdir("/h"))
	var fds [2][files]fsapi.FD // [app][file]
	for i := range fds[0] {
		p := fmt.Sprintf("/h/d%02d", i)
		s.must(s.ws[0].Create(p))
		var err error
		fds[0][i], err = writer(i).Open(p)
		s.must(err)
	}
	s.release(0)
	for i := range fds[1] {
		var err error
		fds[1][i], err = s.ws[1].Open(fmt.Sprintf("/h/d%02d", i))
		s.must(err)
	}
	s.release(1)
	fill := func(turn int) []byte { return bytes.Repeat([]byte{byte(turn)}, layout.PageSize) }
	for turn := 0; turn < turns; turn++ {
		sys, acq := s.crossings()
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 2)
		for i, w := range threads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = w.WriteAt(fds[0][i], fill(2*turn), 0)
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			s.must(err)
		}
		for i := 2; i < files; i++ {
			_, err := writer(i).WriteAt(fds[0][i], fill(2*turn), 0)
			s.must(err)
		}
		// App 0's first turn has no working set yet (its only earlier hold
		// acquired cold): one single crossing a file. Every later one: one
		// batch.
		if d, a := s.crossings(); a-acq != files || (turn > 0 && d-sys != 1) {
			t.Fatalf("turn %d: %d crossings for %d acquires, want 1 for %d", turn, d-sys, a-acq, files)
		}
		s.release(0)
		for i := range fds[1] {
			_, err := s.ws[1].WriteAt(fds[1][i], fill(2*turn+1), 0)
			s.must(err)
		}
		s.release(1)
	}
	block := make([]byte, layout.PageSize)
	for i := range fds[0] {
		if _, err := writer(i).ReadAt(fds[0][i], block, 0); err != nil || block[0] != byte(2*turns-1) {
			t.Fatalf("app 0 reads %d from file %d (%v), want app 1's last %d", block[0], i, err, 2*turns-1)
		}
	}
}
