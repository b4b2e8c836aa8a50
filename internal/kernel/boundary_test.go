package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"arckfs/internal/layout"
	"arckfs/internal/telemetry"
	"arckfs/internal/verifier"
)

// boundaryWorld is a controller with something of every kind for a caller
// to take: an honest app holding the root and file held, a file dormant
// under its grant lease, a kernel-held file, outstanding inode and page
// grants, and the rename lease.
type boundaryWorld struct {
	h                     *harness
	honest                AppID
	held, dormant, kernel uint64
	pages                 []uint64
}

func newBoundaryWorld(t *testing.T) *boundaryWorld {
	t.Helper()
	h := newHarness(t, verifier.Enhanced)
	w := &boundaryWorld{h: h, honest: h.c.RegisterApp(0, 0)}
	if _, err := h.c.Acquire(w.honest, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	w.held = h.mkfile(w.honest, layout.RootIno, "held")
	w.dormant = h.mkfile(w.honest, layout.RootIno, "dormant")
	w.kernel = h.mkfile(w.honest, layout.RootIno, "kernel")
	for _, ino := range []uint64{layout.RootIno, w.held, w.dormant, w.kernel} {
		if err := h.c.commitOne(w.honest, ino); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.c.releaseLeased(w.honest, w.dormant); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Release(w.honest, w.kernel); err != nil {
		t.Fatal(err)
	}
	_, w.pages = h.grant(w.honest, 2)
	if err := h.c.RenameLockAcquire(w.honest); err != nil {
		t.Fatal(err)
	}
	return w
}

// state renders who holds what: the rename lease, every page-owner word,
// every shadow entry's holder and every app's outstanding grants.
func (w *boundaryWorld) state() string {
	c := w.h.c
	lines := []string{fmt.Sprintf("rename lease %d, %d free pages, %d free inodes",
		c.renameLock.Holder(), c.FreeCount(), len(c.inoFree))}
	for p := range c.pages {
		if o := c.pageOwnerAt(uint64(p)); o != ownFree {
			lines = append(lines, fmt.Sprintf("page %d owner %#x", p, o))
		}
	}
	c.shadowRange(func(ino uint64, se *shadowEnt) {
		lines = append(lines, fmt.Sprintf("inode %d owner %d mapped %v dormant %v", ino, se.owner,
			se.mapping.Valid(), se.mapping != nil && se.mapping.dormant.Load()))
	})
	for id, a := range c.apps {
		lines = append(lines, fmt.Sprintf("app %d: %d inode grants, %d pages out", id, len(a.grantedInos), a.pagesOut.Load()))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestCrossingsRefuseUnknownApps drives every app-facing crossing that
// moves ownership. From a registered app each is one syscall. From app 0
// or an id never registered each item fails, or the call does nothing, and
// in no case does a lease, a page or an inode change hands or the kernel
// panic — app 0 is also the owner word of a kernel-held inode.
func TestCrossingsRefuseUnknownApps(t *testing.T) {
	transfer := func(kind XferKind) func(*Controller, AppID, *boundaryWorld) []error {
		return func(c *Controller, app AppID, w *boundaryWorld) []error {
			var errs []error
			for _, r := range c.Transfer(app, []uint64{w.held, w.dormant, w.kernel}, kind, nil, nil) {
				errs = append(errs, r.Err)
			}
			return errs
		}
	}
	rows := []struct {
		name string
		// call makes one crossing and returns one error per item it asked
		// for; a crossing with no failure mode returns none.
		call func(c *Controller, app AppID, w *boundaryWorld) []error
	}{
		{"Acquire", func(c *Controller, app AppID, w *boundaryWorld) []error {
			_, err := c.Acquire(app, w.dormant, true)
			return []error{err}
		}},
		{"AcquireBatch", func(c *Controller, app AppID, w *boundaryWorld) []error {
			_, err := c.AcquireBatch(app, []uint64{w.kernel, w.dormant, w.held}, nil, nil)
			return []error{err}
		}},
		{"Release", func(c *Controller, app AppID, w *boundaryWorld) []error {
			return []error{c.Release(app, w.kernel)}
		}},
		{"Transfer/release", transfer(XferRelease)},
		{"Transfer/commit", transfer(XferCommit)},
		{"Transfer/lease", transfer(XferLease)},
		{"GrantInodes", func(c *Controller, app AppID, _ *boundaryWorld) []error {
			_, err := c.GrantInodes(app, 1)
			return []error{err}
		}},
		{"GrantPages", func(c *Controller, app AppID, _ *boundaryWorld) []error {
			_, err := c.GrantPages(app, 0, 1)
			return []error{err}
		}},
		{"ReturnPages", func(c *Controller, app AppID, w *boundaryWorld) []error {
			c.ReturnPages(app, w.pages)
			return nil
		}},
		{"RenameLockAcquire", func(c *Controller, app AppID, _ *boundaryWorld) []error {
			return []error{c.RenameLockAcquire(app)}
		}},
		{"RenameLockRelease", func(c *Controller, app AppID, _ *boundaryWorld) []error {
			if c.RenameLockRelease(app) {
				return []error{nil}
			}
			return []error{errors.New("not the holder")}
		}},
	}
	// run makes the call, turning a kernel panic into a test failure.
	run := func(t *testing.T, call func() []error) (errs []error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("the kernel panicked: %v", r)
			}
		}()
		return call()
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newBoundaryWorld(t)
			before := w.h.c.Stats.Syscalls.Load()
			run(t, func() []error { return row.call(w.h.c, w.honest, w) })
			if n := w.h.c.Stats.Syscalls.Load() - before; n != 1 {
				t.Errorf("a registered app's call made %d syscalls, want 1", n)
			}
			for _, app := range []AppID{0, 999} {
				w := newBoundaryWorld(t)
				was := w.state()
				for i, err := range run(t, func() []error { return row.call(w.h.c, app, w) }) {
					if err == nil {
						t.Errorf("app %d: item %d succeeded", app, i)
					}
				}
				if now := w.state(); now != was {
					t.Errorf("app %d moved ownership:\n--- before\n%s\n--- after\n%s", app, was, now)
				}
			}
		})
	}
}

// TestUnregisterReleasesRenameLease: an app that leaves holding the rename
// lease hands it back, so the next app does not wait out the TTL; the
// lease clock is frozen, so a lease left in place would never expire.
func TestUnregisterReleasesRenameLease(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	now := time.Unix(5000, 0)
	h.c.SetClock(func() time.Time { return now })
	leaver, next := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
	if err := h.c.RenameLockAcquire(leaver); err != nil {
		t.Fatal(err)
	}
	if err := h.c.UnregisterApp(leaver); err != nil {
		t.Fatal(err)
	}
	if got := h.c.renameLock.Holder(); got != 0 {
		t.Fatalf("the rename lease is held by app %d after it unregistered", got)
	}
	if err := h.c.RenameLockAcquire(next); err != nil {
		t.Fatal(err)
	}
	if got := h.c.renameLock.Holder(); got != next {
		t.Fatalf("rename lease holder %d, want %d", got, next)
	}
	if err := h.c.RenameLockAcquire(leaver); err == nil {
		t.Fatal("an unregistered app was granted the rename lease")
	}
}

// evSink records the span events one crossing reports.
type evSink [][3]int64

func (s *evSink) SpanEvent(kind uint8, a, b int64) {
	*s = append(*s, [3]int64{int64(kind), a, b})
}

// TestShardWaitSpanEvents: an acquire and a transfer that wait for a shard
// lock each report one timed shard-wait event, naming the shard, to the
// sink they were given.
func TestShardWaitSpanEvents(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	holder, taker := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(holder, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	// Two files on one shard: keep stays the holder's, take goes back to
	// the kernel for the taker. nShadow+1 files make a pair.
	byShard := map[int][]uint64{}
	var keep, take uint64
	for i := 0; take == 0; i++ {
		f := h.mkfile(holder, layout.RootIno, fmt.Sprintf("f%d", i))
		if byShard[shardIndex(f)] = append(byShard[shardIndex(f)], f); len(byShard[shardIndex(f)]) == 2 {
			keep, take = byShard[shardIndex(f)][0], f
		}
	}
	for _, ino := range []uint64{layout.RootIno, keep, take} {
		if err := h.c.commitOne(holder, ino); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Release(holder, take); err != nil {
		t.Fatal(err)
	}

	sh := h.c.shardOf(keep)
	_, contended := sh.mu.Counts()
	sh.mu.Lock()
	var (
		acqSink, xferSink evSink
		acqErr, xferErr   error
		wg                sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, acqErr = h.c.AcquireBatch(taker, []uint64{take}, &acqSink, nil)
	}()
	go func() {
		defer wg.Done()
		xferErr = h.c.Transfer(holder, []uint64{keep}, XferCommit, &xferSink, nil)[0].Err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, n := sh.mu.Counts(); n-contended >= 2 {
			break // both wait for the lock
		}
		if time.Now().After(deadline) {
			sh.mu.Unlock()
			t.Fatal("the crossings never waited for the shard lock")
		}
	}
	sh.mu.Unlock()
	wg.Wait()
	if acqErr != nil || xferErr != nil {
		t.Fatalf("acquire: %v, transfer: %v", acqErr, xferErr)
	}
	for name, evs := range map[string]evSink{"AcquireBatch": acqSink, "Transfer": xferSink} {
		var waits [][3]int64
		for _, ev := range evs {
			if ev[0] == int64(telemetry.SpanEvShardWait) {
				waits = append(waits, ev)
			}
		}
		if len(waits) != 1 || waits[0][1] != int64(shardIndex(keep)) || waits[0][2] <= 0 {
			t.Errorf("%s reported shard waits %v, want one on shard %d with a wait > 0", name, waits, shardIndex(keep))
		}
	}
}
