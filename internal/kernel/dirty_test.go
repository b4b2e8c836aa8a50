package kernel

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/pmem"
	"arckfs/internal/verifier"
)

// twoPageRoot has app hold the root with a committed log of two pages on
// tail 0 — long names fill the first — every dirty bit of the root clear
// and no page harvested: the commit adopts the pages, still app-granted
// while it reads them, the plain release clears their bits with no mapping
// left, and the cold acquire reads no bit. It returns the two pages.
func twoPageRoot(t *testing.T, h *harness, app AppID) (first, second uint64) {
	t.Helper()
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		h.mkfile(app, layout.RootIno, fmt.Sprintf("%03d-%s", i, strings.Repeat("x", 200)))
		in, _, _ := layout.ReadInode(h.dev, h.g, layout.RootIno)
		if first = layout.TailHead(h.dev, in.DataRoot, 0); layout.NextPage(h.dev, first) != 0 {
			second = layout.NextPage(h.dev, first)
			break
		}
	}
	if err := h.c.commitOne(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Release(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	return first, second
}

// pageSlots counts the record slots on log page p.
func (h *harness) pageSlots(p uint64) int64 {
	n := int64(0)
	layout.ScanPage(h.dev, p, make([]byte, layout.MaxName), func(layout.RawDentry) bool { n++; return true })
	return n
}

// wantColdView fails the test unless ino's baseline is what a cold parse
// of the device reads.
func (h *harness) wantColdView(ino uint64, what string) {
	h.t.Helper()
	cold, err := h.c.ver.ParseDir(ino)
	if err != nil {
		h.t.Fatalf("%s: cold parse: %v", what, err)
	}
	dv := h.c.shadowGet(ino, nil).snap.dir
	if dv.Inode != cold.Inode || dv.Records != cold.Records || !slices.Equal(dv.Entries, cold.Entries) || !slices.Equal(dv.Pages, cold.Pages) {
		h.t.Fatalf("%s: the baseline differs from a cold parse\n got %+v\nwant %+v", what, dv, cold)
	}
}

// TestDirtyBitsTrustBoundary pins the rules that let a directory
// verification take a page it did not read from the baseline, one subtest
// each. The LibFS cannot clear a bit: every store sets it (stores). A
// verification clears only the bits of the directory's own pages (owner).
// A page whose bit a verification cleared under a live mapping is read by
// every verification until the unmap, and by the first after it (mapped).
// So a failed commit, the one failed verification that keeps its
// baseline, has every page it cleared read again (failure).
func TestDirtyBitsTrustBoundary(t *testing.T) {
	t.Run("stores", func(t *testing.T) {
		// A scribble on a page the holder did not otherwise write is read,
		// rejected and rolled back, beside an honest create on the other.
		h := newHarness(t, verifier.Enhanced)
		app := h.c.RegisterApp(0, 0)
		first, _ := twoPageRoot(t, h, app)
		verified := h.dirImage(layout.RootIno)
		h.mkfile(app, layout.RootIno, "honest")
		a, _ := layout.ReadDentry(h.dev, layout.MakeDentryRef(first, 0))
		b, _ := layout.ReadDentry(h.dev, layout.MakeDentryRef(first, a.RecLen))
		h.dev.Store64(b.Ref.DevOff(), a.Ino) // b's name now links a's inode too
		if err := h.c.Release(app, layout.RootIno); !IsVerificationError(err) {
			t.Fatalf("release over a scribbled clean page = %v, want a verification failure", err)
		}
		h.wantBytes(verified, "after rollback")
	})
	t.Run("owner", func(t *testing.T) {
		// The root's chain runs on into sub's log page. The root's release is
		// refused; sub's page keeps its bit, and sub's commit reads it.
		h, app, sub := compactionFixture(t)
		if _, err := h.c.Acquire(app, sub, true); err != nil {
			t.Fatal(err)
		}
		h.mkfile(app, sub, "later")
		ref, _ := h.findDentry(sub, "later")
		subPage := ref.Page()
		in, _, _ := layout.ReadInode(h.dev, h.g, layout.RootIno)
		last, _, _ := layout.ScanTail(h.dev, layout.TailHead(h.dev, in.DataRoot, 0), nil)
		layout.SetNextPage(h.dev, last, subPage)
		if err := h.c.Release(app, layout.RootIno); !IsVerificationError(err) {
			t.Fatalf("release of a chain into another directory's page = %v, want a verification failure", err)
		}
		if !h.dev.Dirty(subPage) {
			t.Fatal("the root's verification cleared the bit of sub's page")
		}
		parsed := h.c.VerifierStats().Dentries.Load()
		if err := h.c.commitOne(app, sub); err != nil {
			t.Fatal(err)
		}
		if got, want := h.c.VerifierStats().Dentries.Load()-parsed, h.pageSlots(subPage); got != want {
			t.Fatalf("sub's commit scanned %d record slots, want its page's %d", got, want)
		}
		if sh, _ := h.c.ShadowOf(sub); sh.ChildCount != 2 {
			t.Fatalf("sub has %d verified children, want 2", sh.ChildCount)
		}
		h.wantColdView(sub, "sub after its commit")
	})
	t.Run("failure", func(t *testing.T) {
		// A commit fails on the inode record after its parse read the page a
		// create dirtied and cleared its bit. Nothing rewrites that page (the
		// policy marks the directory inaccessible), the holder repairs the
		// record, and the next commit must read the page again: the failed
		// one harvested it under the live mapping.
		dev := pmem.New(512*layout.PageSize, nil)
		c, err := Format(dev, Options{Mode: verifier.Enhanced, Policy: PolicyMarkInaccessible, InodeCap: 256, NTails: 2})
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{t: t, dev: dev, c: c, g: c.Geometry()}
		app := h.c.RegisterApp(0, 0)
		twoPageRoot(t, h, app)
		h.mkfile(app, layout.RootIno, "created")
		in, _, _ := layout.ReadInode(h.dev, h.g, layout.RootIno)
		perm := in.Perm
		in.Perm = 0
		layout.WriteInode(h.dev, h.g, layout.RootIno, &in)
		if err := h.c.commitOne(app, layout.RootIno); !IsVerificationError(err) {
			t.Fatalf("commit of a changed permission = %v, want a verification failure", err)
		}
		in.Perm = perm
		layout.WriteInode(h.dev, h.g, layout.RootIno, &in)
		if err := h.c.commitOne(app, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		h.wantColdView(layout.RootIno, "after the repaired commit")
		if _, ok := h.findDentry(layout.RootIno, "created"); !ok {
			t.Fatal("created is not on the device")
		}
	})
	t.Run("mapped", func(t *testing.T) {
		// The holder writes the first log page before a commit, whose
		// harvest clears its bit under the live mapping; it then stores to
		// the page with no bit set. The next commit reads the page and
		// rejects the store.
		h := newHarness(t, verifier.Enhanced)
		app := h.c.RegisterApp(0, 0)
		first, _ := twoPageRoot(t, h, app)
		h.touch(first)
		if err := h.c.commitOne(app, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		verified := h.dirImage(layout.RootIno)
		h.scribbleUnmarked(first)
		if err := h.c.commitOne(app, layout.RootIno); !IsVerificationError(err) {
			t.Fatalf("commit over an unmarked store to a harvested page = %v, want a verification failure", err)
		}
		h.wantBytes(verified, "after rollback")

		// The same store between a leased release and the unmap that hands
		// the directory over: the new holder's release reads the page.
		h = newHarness(t, verifier.Enhanced)
		app = h.c.RegisterApp(0, 0)
		first, _ = twoPageRoot(t, h, app)
		h.touch(first)
		if _, err := h.c.releaseLeased(app, layout.RootIno); err != nil {
			t.Fatal(err)
		}
		verified = h.dirImage(layout.RootIno)
		h.scribbleUnmarked(first)
		other := h.c.RegisterApp(0, 0)
		if _, err := h.c.Acquire(other, layout.RootIno, true); err != nil {
			t.Fatal(err)
		}
		if err := h.c.Release(other, layout.RootIno); !IsVerificationError(err) {
			t.Fatalf("release after an unmarked store to a harvested page = %v, want a verification failure", err)
		}
		h.wantBytes(verified, "after rollback")
	})
}

// touch stores to page p the value it holds: a write that changes nothing
// but p's dirty bit.
func (h *harness) touch(p uint64) {
	off := int64(p * layout.PageSize)
	h.dev.Store64(off, h.dev.Load64(off))
}

// scribbleUnmarked makes the second record of log page p link the first
// record's inode too, and leaves p's bit clear: a store through a TLB entry
// that still caches p dirty after the kernel cleared the PTE's bit.
func (h *harness) scribbleUnmarked(p uint64) {
	a, _ := layout.ReadDentry(h.dev, layout.MakeDentryRef(p, 0))
	b, _ := layout.ReadDentry(h.dev, layout.MakeDentryRef(p, a.RecLen))
	h.dev.Store64(b.Ref.DevOff(), a.Ino)
	h.dev.ClearDirty(p)
}

// TestDirtyBitsRaceNeighbourStores races stores against the verifications
// that harvest their bits. Neighbour: one application's directory commits
// clear dirty bits while another stores to its own pages in the same
// bitmap word. Neither loses the other's bits: the storer's pages stay
// dirty, and every commit's view is a cold parse. Same page: each round a
// store to the directory's own log page races the plain release that
// harvests that page's bit; a release that took the page from its baseline
// missed the store, and must have left the bit set.
func TestDirtyBitsRaceNeighbourStores(t *testing.T) {
	t.Run("neighbour", raceNeighbourStores)
	t.Run("same page", raceSamePageStores)
}

func raceNeighbourStores(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	a, b := h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
	first, _ := twoPageRoot(t, h, a)
	pages, err := h.c.GrantPages(b, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(pages, func(p uint64) bool { return p/64 == first/64 })
	if i < 0 {
		t.Fatalf("no page of %v shares a bitmap word with the root's page %d", pages, first)
	}
	mine := pages[i]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := uint64(0); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			h.dev.Store64(int64(mine*layout.PageSize)+int64(n%512)*8, n)
		}
	}()
	for n := 0; n < 200; n++ {
		h.mkfile(a, layout.RootIno, fmt.Sprintf("n%03d", n))
		if err := h.c.commitOne(a, layout.RootIno); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if !h.dev.Dirty(mine) {
		t.Fatal("the storer's page lost its dirty bit to the commits")
	}
	h.wantColdView(layout.RootIno, "after the commits")
}

func raceSamePageStores(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	_, second := twoPageRoot(t, h, app)
	// The store lands in the last word of the page's record area, past the
	// append frontier, which no parse reads: the race is on the bit alone.
	off := int64(second*layout.PageSize) + layout.LogDataSize - 8
	vs := h.c.VerifierStats()
	release := func() {
		if err := h.c.Release(app, layout.RootIno); err != nil {
			t.Fatal(err)
		}
	}
	acquire := func() {
		if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
			t.Fatal(err)
		}
	}
	release()
	store, stored := make(chan uint64), make(chan struct{})
	go func() {
		for n := range store {
			h.dev.Store64(off, n)
			stored <- struct{}{}
		}
	}()
	missed := 0
	for n := uint64(0); n < 400; n++ {
		acquire()
		pages := vs.Pages.Load()
		store <- n
		release()
		<-stored
		if vs.Pages.Load() == pages {
			missed++
			if !h.dev.Dirty(second) {
				t.Fatalf("round %d: the release took the page unread, and its bit is clear", n)
			}
		}
	}
	close(store)
	t.Logf("%d of 400 releases harvested the bit before the store", missed)
	acquire()
	h.wantColdView(layout.RootIno, "after the releases")
}
