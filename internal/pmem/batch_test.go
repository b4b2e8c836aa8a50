package pmem

import (
	"bytes"
	"testing"
)

func testDev() *Device { return New(16*PageSize, nil) }

// Three flush requests for the same line must collapse to one clwb at the
// barrier, counted as two absorbed requests.
func TestBatchDedupesSameLine(t *testing.T) {
	d := testDev()
	b := d.NewBatch()
	d.Store64(0, 1)
	b.Flush(0, 8)
	d.Store64(8, 2)
	b.Flush(8, 8)
	d.Store64(16, 3)
	b.Flush(16, 8)
	if got := d.Stats.Flushes.Load(); got != 0 {
		t.Fatalf("flushes before barrier = %d, want 0", got)
	}
	if got := d.Stats.BatchDedup.Load(); got != 2 {
		t.Fatalf("dedup count = %d, want 2", got)
	}
	b.Barrier()
	if got := d.Stats.Flushes.Load(); got != 1 {
		t.Fatalf("flushes after barrier = %d, want 1", got)
	}
	if got := d.Stats.Fences.Load(); got != 1 {
		t.Fatalf("fences = %d, want 1", got)
	}
	if b.Pending() != 0 {
		t.Fatalf("queue not empty after barrier: %d lines", b.Pending())
	}
}

// Eight adjacent 8-byte entries spanning one line coalesce to a single
// flush; entries across two lines to two.
func TestBatchCoalescesAdjacentEntries(t *testing.T) {
	d := testDev()
	b := d.NewBatch()
	for i := int64(0); i < 8; i++ {
		d.Store64(i*8, uint64(i))
		b.Flush(i*8, 8)
	}
	b.Barrier()
	if got := d.Stats.Flushes.Load(); got != 1 {
		t.Fatalf("one-line entry loop: flushes = %d, want 1", got)
	}
	for i := int64(0); i < 16; i++ {
		d.Store64(256+i*8, uint64(i))
		b.Flush(256+i*8, 8)
	}
	b.Barrier()
	if got := d.Stats.Flushes.Load() - 1; got != 2 {
		t.Fatalf("two-line entry loop: flushes = %d, want 2", got)
	}
}

// Content queued before a Barrier is durable after it; content queued
// after is a separate epoch and stays volatile until its own Barrier.
func TestBatchEpochIsolation(t *testing.T) {
	d := testDev()
	d.EnableTracking()
	b := d.NewBatch()

	d.Store64(0, 0xb0d7)
	b.Flush(0, 8)
	b.Barrier()
	d.Store64(128, 0x3a42) // next epoch, queued but unfenced
	b.Flush(128, 8)

	img := d.CrashImage(CrashDropAll)
	if v := le64(img[0:]); v != 0xb0d7 {
		t.Fatalf("fenced epoch lost: got %#x", v)
	}
	if v := le64(img[128:]); v != 0 {
		t.Fatalf("unfenced epoch persisted under drop-all: got %#x", v)
	}
	// The unfenced line is still free to persist — it must appear in the
	// dirty set.
	dirty := d.DirtyLines()
	found := false
	for _, l := range dirty {
		if l == 128 {
			found = true
		}
	}
	if !found {
		t.Fatalf("queued-but-unfenced line missing from DirtyLines: %v", dirty)
	}
}

// Non-temporal writes are durable at the next fence with zero flushes,
// and are counted per line in NTStores.
func TestWriteNTDurableAtFence(t *testing.T) {
	d := testDev()
	d.EnableTracking()
	b := d.NewBatch()

	p := make([]byte, 2*LineSize)
	for i := range p {
		p[i] = byte(i)
	}
	b.WriteStream(512, p)
	if got := d.Stats.NTStores.Load(); got != 2 {
		t.Fatalf("ntstores = %d, want 2", got)
	}
	// Before the fence the lines are dirty: drop-all loses them.
	img := d.CrashImage(CrashDropAll)
	if !bytes.Equal(img[512:512+2*LineSize], make([]byte, 2*LineSize)) {
		t.Fatal("streaming store persisted before fence under drop-all")
	}
	b.Barrier()
	img = d.CrashImage(CrashDropAll)
	if !bytes.Equal(img[512:512+2*LineSize], p) {
		t.Fatal("streaming store not durable after fence")
	}
	if got := d.Stats.Flushes.Load(); got != 0 {
		t.Fatalf("streaming store issued %d flushes, want 0", got)
	}
}

func TestWriteNTAlignmentPanics(t *testing.T) {
	d := testDev()
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned WriteNT did not panic")
		}
	}()
	d.WriteNT(8, make([]byte, LineSize))
}

// unbatched is the raw Device protocol a Batch must be indistinguishable
// from at every fence: a clwb at every flush site, a store + clwb where
// the batch streams, and a fence at every barrier.
type unbatched struct{ dev *Device }

func (u unbatched) Flush(off, n int64) { u.dev.Flush(off, n) }

func (u unbatched) WriteStream(off int64, p []byte) {
	u.dev.Write(off, p)
	u.dev.Flush(off, int64(len(p)))
}

func (u unbatched) Barrier() { u.dev.Fence() }

// runProtocol executes the same two-epoch commit protocol (body lines,
// barrier, marker line, barrier) through q's persist surface and returns
// every all-or-nothing crash image over the dirty lines captured at the
// hook point between the two epochs.
func runProtocol(t *testing.T, q func(*Device) persistQueue) (atHook [][]byte, final []byte) {
	t.Helper()
	d := testDev()
	d.EnableTracking()
	b := q(d)
	// Body: two lines plus a streamed record.
	d.Store64(0, 0x0123)
	b.Flush(0, 8)
	d.Store64(64, 0x4567)
	b.Flush(64, 8)
	rec := make([]byte, LineSize)
	rec[0] = 0xaa
	b.WriteStream(256, rec)
	b.Barrier()
	// Marker epoch.
	d.Store16(128, 1)
	b.Flush(128, 2)
	// Hook point: marker queued/flushed, not fenced — enumerate crashes.
	dirty := d.DirtyLines()
	for mask := 0; mask < 1<<len(dirty); mask++ {
		var keep []int64
		for i, l := range dirty {
			if mask&(1<<i) != 0 {
				keep = append(keep, l)
			}
		}
		atHook = append(atHook, d.CrashImage(CrashKeepLines(keep...)))
	}
	b.Barrier()
	return atHook, d.CrashImage(CrashDropAll)
}

// The batched protocol and the unbatched device protocol must admit
// exactly the same set of crash states — batching changes how many clwbs
// are issued, never what a crash can expose.
func TestBatchedCrashStatesMatchUnbatched(t *testing.T) {
	batched, bfinal := runProtocol(t, func(d *Device) persistQueue { return d.NewBatch() })
	ref, rfinal := runProtocol(t, func(d *Device) persistQueue { return unbatched{d} })
	if !bytes.Equal(bfinal, rfinal) {
		t.Fatal("final durable images differ between batched and unbatched")
	}
	key := func(img []byte) string { return string(img[:512]) }
	bset := map[string]bool{}
	for _, img := range batched {
		bset[key(img)] = true
	}
	rset := map[string]bool{}
	for _, img := range ref {
		rset[key(img)] = true
	}
	if len(bset) != len(rset) {
		t.Fatalf("crash-state count differs: batched %d, unbatched %d", len(bset), len(rset))
	}
	for k := range bset {
		if !rset[k] {
			t.Fatal("batched protocol admits a crash state the unbatched one does not")
		}
	}
	// The body must be durable in every state (it was fenced before the
	// marker was queued).
	for _, img := range batched {
		if le64(img[0:]) != 0x0123 || le64(img[64:]) != 0x4567 || img[256] != 0xaa {
			t.Fatal("crash state lost fenced body content")
		}
	}
}

func le64(p []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(p[i])
	}
	return v
}
