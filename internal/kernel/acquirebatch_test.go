package kernel

import (
	"errors"
	"testing"
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/verifier"
)

// batchFixture builds /dirA/file1, /dirA/file2 and /fileTop, then has app b
// acquire all five inodes and lease-release them: each is held dormant by b
// with its verified snapshot, as a handoff peer leaves them. It returns the
// inodes parents first, and a second application a.
func batchFixture(t *testing.T) (h *harness, a, b AppID, inos []uint64, bm []*Mapping) {
	t.Helper()
	h = newHarness(t, verifier.Enhanced)
	a, b = h.c.RegisterApp(0, 0), h.c.RegisterApp(0, 0)
	dirA, file1, file2, fileTop := buildCommittedTree(h, a)
	inos = []uint64{layout.RootIno, dirA, fileTop, file1, file2}
	for _, ino := range inos {
		if _, err := h.c.Acquire(b, ino, true); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range h.c.Transfer(b, inos, XferLease, nil, nil) {
		if r.Err != nil || r.Mapping == nil {
			t.Fatalf("leased release of %d: %v", inos[i], r.Err)
		}
		bm = append(bm, r.Mapping)
	}
	return h, a, b, inos, bm
}

// walked is what the verifier has parsed so far: record slots and pages.
func (h *harness) walked() int64 {
	vs := h.c.VerifierStats()
	return vs.Dentries.Load() + vs.Pages.Load()
}

// TestAcquireBatchHandsOverDormant: one crossing takes back a whole working
// set a peer holds dormant. The head comes back active, the tail dormant and
// the caller's to reactivate; every inode adopts the peer's verified
// snapshot, so nothing is parsed, and the peer's mappings are revoked. The
// tail is then the caller's lease like any other: reactivated, it releases
// against that snapshot; left dormant, once its hold ends, the peer's next
// batch reclaims it.
func TestAcquireBatchHandsOverDormant(t *testing.T) {
	h, a, b, inos, bm := batchFixture(t)
	before, walked := h.c.Stats.Snapshot(), h.walked()
	out, err := h.c.AcquireBatch(a, inos, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := h.c.Stats.Snapshot()
	if d.Syscalls-before.Syscalls != 1 || d.Acquires-before.Acquires != int64(len(inos)) || d.Verifications != before.Verifications {
		t.Fatalf("%d crossings, %d acquires, %d verifications; want 1, %d, 0",
			d.Syscalls-before.Syscalls, d.Acquires-before.Acquires, d.Verifications-before.Verifications, len(inos))
	}
	if got := h.walked() - walked; got != 0 {
		t.Fatalf("the batch parsed %d records and pages, want 0", got)
	}
	for i, m := range out {
		if bm[i].Valid() {
			t.Fatalf("inode %d: the peer's dormant mapping survived the batch", inos[i])
		}
		if !m.Valid() || m.Ino() != inos[i] {
			t.Fatalf("inode %d: batch mapping %+v", inos[i], m)
		}
		// OwnerOf reports a dormant holder as kernel-held.
		if want := map[bool]AppID{true: a, false: 0}[i == 0]; h.c.OwnerOf(inos[i]) != want {
			t.Fatalf("inode %d: owner %d, want %d", inos[i], h.c.OwnerOf(inos[i]), want)
		}
	}
	// Reactivate part of the tail and create a file through it: the
	// release verifies the change against the handed-over baseline.
	if !out[1].Reactivate() || !out[3].Reactivate() {
		t.Fatal("the caller could not reactivate its prefetched mappings")
	}
	nf := h.mkfile(a, inos[1], "new")
	for i, r := range h.c.Transfer(a, []uint64{inos[0], inos[1], nf, inos[3]}, XferLease, nil, nil) {
		if r.Err != nil {
			t.Fatalf("leased release %d: %v", i, r.Err)
		}
	}
	// What a never touched is still its dormant lease, held until a's LibFS
	// ends the hold, as its ReleaseAll does: then the peer's batch takes
	// everything back, again without a parse.
	out[2].EndHold()
	out[4].EndHold()
	walked = h.walked()
	back, err := h.c.AcquireBatch(b, inos, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range back {
		if m == nil || out[i].Valid() {
			t.Fatalf("inode %d: peer batch mapping %v, prefetched mapping still valid %v", inos[i], m, out[i].Valid())
		}
	}
	if got := h.walked() - walked; got != 0 {
		t.Fatalf("the peer's batch parsed %d records and pages, want 0", got)
	}
}

// TestAcquireBatchPrefetchHeldUntilHoldEnds: what a batch prefetched is
// held for its app until the app's LibFS ends the hold (EndHold), the app
// reactivates and lease-releases it, or its lease runs out. Until then
// other apps' single acquires meet ErrBusy and their batches skip it;
// after, it is an ordinary dormant lease, reclaimed without a parse.
// Another release crossing of the app does not end the hold.
func TestAcquireBatchPrefetchHeldUntilHoldEnds(t *testing.T) {
	for _, end := range []string{"end-hold", "lease-release", "expiry"} {
		t.Run(end, func(t *testing.T) {
			h, a, b, inos, _ := batchFixture(t)
			now := time.Unix(5000, 0)
			h.c.SetClock(func() time.Time { return now })
			file1 := inos[3]
			out, err := h.c.AcquireBatch(a, []uint64{layout.RootIno, file1}, nil, nil)
			if err != nil || out[1] == nil {
				t.Fatalf("batch: %v %v", out, err)
			}
			if err := h.c.Release(a, layout.RootIno); err != nil {
				t.Fatal(err)
			}
			if _, err := h.c.Acquire(b, file1, true); !errors.Is(err, fsapi.ErrBusy) {
				t.Fatalf("single acquire of the prefetched file1: %v, want ErrBusy", err)
			}
			if back, err := h.c.AcquireBatch(b, []uint64{inos[2], file1}, nil, nil); err != nil || back[1] != nil {
				t.Fatalf("a peer batch took the prefetched file1: %v %v", back, err)
			}
			switch end {
			case "end-hold":
				out[1].EndHold()
			case "lease-release":
				if !out[1].Reactivate() {
					t.Fatal("the owner could not reactivate its prefetch")
				}
				if _, err := h.c.releaseLeased(a, file1); err != nil {
					t.Fatal(err)
				}
			default:
				now = now.Add(time.Hour)
			}
			walked := h.walked()
			if _, err := h.c.Acquire(b, file1, true); err != nil {
				t.Fatalf("single acquire after the hold: %v", err)
			}
			if out[1].Valid() || h.walked() != walked || h.c.Stats.Involuntary.Load() != 0 {
				t.Fatalf("after the hold: prefetched mapping valid %v, %d parsed, %d involuntary; want a plain dormant reclaim",
					out[1].Valid(), h.walked()-walked, h.c.Stats.Involuntary.Load())
			}
		})
	}
}

// TestAcquireBatchPrefetchNotHeldInTrustGroup: the hold is against apps
// outside the batching app's trust group only. A group peer meets a
// prefetch as it meets any dormant lease (§5.4: group members never get
// ErrBusy from each other): its single acquire and its batch both take the
// prefetched inode back, with no parse, while an app outside the group
// still meets ErrBusy.
func TestAcquireBatchPrefetchNotHeldInTrustGroup(t *testing.T) {
	h, a, b, inos, _ := batchFixture(t)
	outsider := h.c.RegisterApp(0, 0)
	if _, err := h.c.NewTrustGroup(a, b); err != nil {
		t.Fatal(err)
	}
	fileTop, file1 := inos[2], inos[3]
	out, err := h.c.AcquireBatch(a, []uint64{layout.RootIno, fileTop, file1}, nil, nil)
	if err != nil || out[1] == nil || out[2] == nil {
		t.Fatalf("batch: %v %v", out, err)
	}
	if _, err := h.c.Acquire(outsider, file1, true); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("outsider's acquire of the prefetched file1: %v, want ErrBusy", err)
	}
	walked := h.walked()
	if _, err := h.c.Acquire(b, file1, true); err != nil {
		t.Fatalf("group peer's acquire of the prefetched file1: %v, want a grant", err)
	}
	back, err := h.c.AcquireBatch(b, []uint64{file1, fileTop}, nil, nil)
	if err != nil || back[1] == nil {
		t.Fatalf("group peer's batch over the prefetched fileTop: %v %v, want it granted", back, err)
	}
	if out[1].Valid() || out[2].Valid() || h.walked() != walked || h.c.Stats.Involuntary.Load() != 0 {
		t.Fatalf("prefetches valid %v %v, %d parsed, %d involuntary; want both reclaimed plainly",
			out[1].Valid(), out[2].Valid(), h.walked()-walked, h.c.Stats.Involuntary.Load())
	}
}

// TestAcquireBatchSkipsActiveHolder: a tail inode another application
// actively holds is skipped, not stolen — its holder keeps a valid mapping
// and the caller's later single Acquire is refused ErrBusy as it always
// was. A batch whose head is busy fails whole: nothing in its tail moves.
func TestAcquireBatchSkipsActiveHolder(t *testing.T) {
	h, a, b, inos, bm := batchFixture(t)
	file1, file2 := inos[3], inos[4]
	if !bm[3].Reactivate() {
		t.Fatal("peer could not reactivate file1")
	}
	out, err := h.c.AcquireBatch(a, []uint64{layout.RootIno, file1, file2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != nil || !bm[3].Valid() || h.c.OwnerOf(file1) != b {
		t.Fatalf("the batch took file1 from its active holder: mapping %v, holder valid %v, owner %d",
			out[1], bm[3].Valid(), h.c.OwnerOf(file1))
	}
	if out[2] == nil || bm[4].Valid() {
		t.Fatal("the dormant file2 was not handed over")
	}
	if _, err := h.c.Acquire(a, file1, true); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("single acquire of the held file1: %v, want ErrBusy", err)
	}

	// Busy head: the error is the batch's, and the dormant tail stays put.
	before := h.c.Stats.Snapshot()
	out, err = h.c.AcquireBatch(a, []uint64{file1, inos[2]}, nil, nil)
	if !errors.Is(err, fsapi.ErrBusy) || out[1] != nil || !bm[2].Valid() {
		t.Fatalf("busy head: err %v, tail %v, peer's fileTop valid %v; want ErrBusy and nothing granted", err, out[1], bm[2].Valid())
	}
	if d := h.c.Stats.Snapshot(); d.Acquires-before.Acquires != 1 {
		t.Fatalf("busy head counted %d acquires, want 1", d.Acquires-before.Acquires)
	}
}

// TestAcquireBatchExpiredTailIsNotReclaimed: a tail inode whose active
// holder's lease has expired is skipped too. Only the single Acquire may
// force an involuntary release; the batch, a side effect of some other
// inode's miss, never does.
func TestAcquireBatchExpiredTailIsNotReclaimed(t *testing.T) {
	h, a, b, inos, bm := batchFixture(t)
	now := time.Unix(5000, 0)
	h.c.SetClock(func() time.Time { return now })
	file1 := inos[3]
	if !bm[3].Reactivate() {
		t.Fatal("peer could not reactivate file1")
	}
	if _, err := h.c.Acquire(b, file1, true); err != nil { // the lease runs from now
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	out, err := h.c.AcquireBatch(a, []uint64{layout.RootIno, file1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != nil || h.c.Stats.Involuntary.Load() != 0 || !bm[3].Valid() {
		t.Fatalf("expired tail: mapping %v, %d involuntary releases, holder valid %v; want skipped",
			out[1], h.c.Stats.Involuntary.Load(), bm[3].Valid())
	}
	if _, err := h.c.Acquire(a, file1, true); err != nil || h.c.Stats.Involuntary.Load() != 1 {
		t.Fatalf("single acquire of the expired file1: %v, %d involuntary releases; want the one", err, h.c.Stats.Involuntary.Load())
	}
}

// TestAcquireBatchSkipsKernelHeld: a kernel-held tail inode has no
// handed-over snapshot, so granting it would mean a parse. The batch skips
// it and parses nothing; the single Acquire that follows pays the parse.
func TestAcquireBatchSkipsKernelHeld(t *testing.T) {
	h, a, b, inos, bm := batchFixture(t)
	dirA := inos[1]
	if !bm[1].Reactivate() {
		t.Fatal("peer could not reactivate dirA")
	}
	if err := h.c.Release(b, dirA); err != nil {
		t.Fatal(err)
	}
	walked := h.walked()
	out, err := h.c.AcquireBatch(a, []uint64{layout.RootIno, dirA}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != nil || h.walked() != walked {
		t.Fatalf("kernel-held tail: mapping %v, %d records and pages parsed; want skipped, 0", out[1], h.walked()-walked)
	}
	if _, err := h.c.Acquire(a, dirA, true); err != nil || h.walked() == walked {
		t.Fatalf("single acquire of the kernel-held dirA: %v, parsed %d; want one parse", err, h.walked()-walked)
	}
}

// TestAcquireBatchCap: an empty list, or one longer than MaxReleaseBatch,
// is refused whole — nothing acquired, no lease touched — at the price of
// the crossing.
func TestAcquireBatchCap(t *testing.T) {
	h, a, _, inos, bm := batchFixture(t)
	long := make([]uint64, MaxReleaseBatch+1)
	for i := range long {
		long[i] = inos[i%len(inos)]
	}
	for _, list := range [][]uint64{long, nil} {
		before := h.c.Stats.Snapshot()
		if out, err := h.c.AcquireBatch(a, list, nil, nil); !errors.Is(err, fsapi.ErrInval) || out != nil {
			t.Fatalf("batch of %d: %v %v, want ErrInval", len(list), out, err)
		}
		after := h.c.Stats.Snapshot()
		if after.Syscalls-before.Syscalls != 1 || after.Acquires != before.Acquires {
			t.Fatalf("batch of %d: %d crossings, %d acquires; want 1 and 0",
				len(list), after.Syscalls-before.Syscalls, after.Acquires-before.Acquires)
		}
	}
	for i, m := range bm {
		if !m.Valid() {
			t.Fatalf("a refused batch reclaimed inode %d", inos[i])
		}
	}
	if _, err := h.c.AcquireBatch(a, long[:MaxReleaseBatch], nil, nil); err != nil {
		t.Fatalf("batch at the cap: %v", err)
	}
}
