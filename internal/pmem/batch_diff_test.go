package pmem

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"arckfs/internal/race"
	"arckfs/internal/telemetry"
)

// refBatch is the persist queue as it was before the pending set became a
// sorted slice: a map of queued lines, drained through sort.Slice. The
// differential test below holds Batch to it.
type refBatch struct {
	dev     *Device
	pending map[int64]struct{}
	sink    telemetry.SpanSink
}

func (b *refBatch) Flush(off, n int64) {
	if n <= 0 {
		return
	}
	first := off / LineSize * LineSize
	last := (off + n - 1) / LineSize * LineSize
	b.sink.SpanEvent(telemetry.SpanEvFlush, first, (last-first)/LineSize+1)
	b.dev.check(off, n)
	if b.pending == nil {
		b.pending = make(map[int64]struct{}, 32)
	}
	for l := first; l <= last; l += LineSize {
		if _, dup := b.pending[l]; dup {
			b.dev.Stats.BatchDedup.Add(1)
			continue
		}
		b.pending[l] = struct{}{}
	}
}

func (b *refBatch) WriteStream(off int64, p []byte) {
	b.sink.SpanEvent(telemetry.SpanEvNTStore, off, int64(len(p)))
	b.dev.WriteNT(off, p)
}

func (b *refBatch) Barrier() {
	drained := int64(len(b.pending))
	if len(b.pending) > 0 {
		lines := make([]int64, 0, len(b.pending))
		for l := range b.pending {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		runStart, runEnd := lines[0], lines[0]+LineSize
		for _, l := range lines[1:] {
			if l == runEnd {
				runEnd += LineSize
				continue
			}
			b.dev.Flush(runStart, runEnd-runStart)
			runStart, runEnd = l, l+LineSize
		}
		b.dev.Flush(runStart, runEnd-runStart)
		clear(b.pending)
	}
	b.dev.Fence()
	b.sink.SpanEvent(telemetry.SpanEvFence, drained, 0)
}

type spanEv struct {
	kind uint8
	a, b int64
}

type evLog []spanEv

func (l *evLog) SpanEvent(kind uint8, a, b int64) { *l = append(*l, spanEv{kind, a, b}) }

// persistQueue is what a test drives on a Batch and on its reference
// (refBatch here, unbatched in batch_test.go).
type persistQueue interface {
	Flush(off, n int64)
	WriteStream(off int64, p []byte)
	Barrier()
}

// TestBatchMatchesMapReference drives seeded random epochs — single
// lines, ranges, descending offsets, duplicates, streamed lines, epochs of
// 2 048 lines — through Batch and through refBatch, each on its own
// crash-tracking device, and after every Barrier compares all that a
// caller, the device or a crash can see: the counters, the span events, the
// volatile and the persistent image, and the state of every dirty line.
func TestBatchMatchesMapReference(t *testing.T) {
	const lines = 4096
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		newDev, refDev := New(lines*LineSize, nil), New(lines*LineSize, nil)
		newDev.EnableTracking()
		refDev.EnableTracking()
		var newEv, refEv evLog
		nb := newDev.NewBatch()
		nb.SetSink(&newEv)
		sides := []struct {
			dev *Device
			q   persistQueue
		}{{newDev, nb}, {refDev, &refBatch{dev: refDev, sink: &refEv}}}

		store := func(off int64, v uint64) {
			for _, s := range sides {
				s.dev.Store64(off, v)
			}
		}
		flush := func(off, n int64) {
			for _, s := range sides {
				s.q.Flush(off, n)
			}
		}
		for epoch := 0; epoch < 40; epoch++ {
			switch shape := rng.Intn(6); shape {
			case 0: // a handful of 8-byte entries, duplicates likely
				base := rng.Int63n(lines-8) * LineSize
				for i := 0; i < 2+rng.Intn(12); i++ {
					off := base + rng.Int63n(4*LineSize/8)*8
					store(off, rng.Uint64())
					flush(off, 8)
				}
			case 1: // ranges, some overlapping
				for i := 0; i < 1+rng.Intn(4); i++ {
					off := rng.Int63n((lines - 40) * LineSize)
					n := 1 + rng.Int63n(32*LineSize)
					store(off/8*8, rng.Uint64())
					flush(off, n)
				}
			case 2: // descending single lines
				top := 64 + rng.Int63n(lines-64)
				for l := top; l > top-int64(2+rng.Intn(60)); l -= 1 + rng.Int63n(2) {
					store(l*LineSize, rng.Uint64())
					flush(l*LineSize+rng.Int63n(LineSize), 1)
				}
			case 3: // an epoch of 2 048 lines in random order, each twice
				perm := rng.Perm(2048)
				for _, l := range append(perm, perm[:64]...) {
					store(int64(l)*2*LineSize, rng.Uint64())
					flush(int64(l)*2*LineSize, LineSize)
				}
			case 4: // streamed lines beside queued ones
				off := rng.Int63n(lines-16) * LineSize
				p := make([]byte, (1+rng.Intn(8))*LineSize)
				rng.Read(p)
				for _, s := range sides {
					s.q.WriteStream(off, p)
				}
				store(off+int64(len(p)), rng.Uint64())
				flush(off+int64(len(p)), 8)
			case 5: // an empty epoch, and a store nobody flushes
				store(rng.Int63n(lines)*LineSize, rng.Uint64())
			}
			if nb.Pending() != len(sides[1].q.(*refBatch).pending) {
				t.Fatalf("seed %d epoch %d: %d lines pending, reference %d", seed, epoch, nb.Pending(), len(sides[1].q.(*refBatch).pending))
			}
			for _, s := range sides {
				s.q.Barrier()
			}
			if nb.Pending() != 0 {
				t.Fatalf("seed %d epoch %d: %d lines pending after the Barrier", seed, epoch, nb.Pending())
			}
			for _, c := range []struct {
				what     string
				got, ref int64
			}{
				{"flushes", newDev.Stats.Flushes.Load(), refDev.Stats.Flushes.Load()},
				{"fences", newDev.Stats.Fences.Load(), refDev.Stats.Fences.Load()},
				{"batch dedup", newDev.Stats.BatchDedup.Load(), refDev.Stats.BatchDedup.Load()},
				{"stores", newDev.Stats.Stores.Load(), refDev.Stats.Stores.Load()},
				{"nt stores", newDev.Stats.NTStores.Load(), refDev.Stats.NTStores.Load()},
			} {
				if c.got != c.ref {
					t.Fatalf("seed %d epoch %d: %s = %d, reference %d", seed, epoch, c.what, c.got, c.ref)
				}
			}
			if !reflect.DeepEqual(newEv, refEv) {
				t.Fatalf("seed %d epoch %d: span events diverge (%d against %d)", seed, epoch, len(newEv), len(refEv))
			}
			if !bytes.Equal(newDev.buf, refDev.buf) ||
				!bytes.Equal(newDev.CrashImage(CrashDropAll), refDev.CrashImage(CrashDropAll)) {
				t.Fatalf("seed %d epoch %d: device images diverge", seed, epoch)
			}
			if !reflect.DeepEqual(newDev.DirtyLineStates(), refDev.DirtyLineStates()) {
				t.Fatalf("seed %d epoch %d: dirty line states diverge", seed, epoch)
			}
		}
	}
}

// TestBatchDoesNotAllocate pins an operation's worth of persist traffic —
// four flushes, one of them out of order and one a duplicate, and the
// Barrier — at zero heap objects once the queue exists.
func TestBatchDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := testDev()
	b := d.NewBatch()
	epoch := func() {
		b.Flush(4*LineSize, 8)
		b.Flush(9*LineSize, 3*LineSize)
		b.Flush(LineSize, 8)
		b.Flush(4*LineSize+8, 8)
		b.Barrier()
	}
	epoch()
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("four flushes and a barrier allocate %v objects, want 0", n)
	}
	if got := d.Stats.BatchDedup.Load(); got != 102 {
		t.Fatalf("dedup = %d over 102 epochs, want one each", got)
	}
}
