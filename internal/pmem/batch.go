package pmem

import (
	"slices"

	"arckfs/internal/telemetry"
)

// Batch is a per-thread write-combining persist queue over one Device.
//
// Real PM file systems do not issue a clwb at every call site that
// dirties a line: within one operation they queue line-granular flush
// requests, dedupe lines already queued, and issue the write-backs in one
// burst at the next ordering point. Batch implements that discipline for
// the LibFS hot paths:
//
//   - Flush(off, n) enqueues the cache lines overlapping [off, off+n).
//     A line already queued since the last barrier is absorbed (counted
//     in Stats.BatchDedup) — this is what coalesces the adjacent 8-byte
//     block-map entry flushes of writeAt/Truncate into single-line
//     flushes.
//   - Barrier() drains the queue (one clwb per unique line, adjacent
//     lines merged into ranged flushes) and issues one fence. A Barrier
//     is an ordering-epoch boundary: content queued before it is durable
//     before anything queued after it can persist.
//   - WriteStream/ZeroStream write full cache lines with non-temporal
//     stores, skipping the clwb entirely; the data is durable at the
//     next Barrier.
//
// Correctness of deferring the clwb to the barrier: in the persistency
// model (and on real hardware) an unfenced clwb guarantees nothing — a
// crash before the fence may persist any per-line prefix of the store
// history whether or not write-back was initiated. Crash states therefore
// depend only on where the fences are, and Batch preserves exactly the
// fence placement of the unbatched code. The one rule a caller must keep
// is the §4.2 ordering-epoch rule: a commit marker must be queued only
// AFTER the Barrier that persists its body — the marker line must never
// merge into the body epoch. The crash-enumeration tests in libfs prove
// the batched protocol admits no new crash states.
//
// A Batch is owned by a single thread and is not safe for concurrent
// use. The unbatched reference it is tested against is the raw Device
// protocol: a store and a clwb at every site, a fence at every barrier.
type Batch struct {
	dev *Device

	// pending is the set of queued line offsets in the current epoch, kept
	// sorted: an operation queues a handful of lines, mostly in ascending
	// order, so a Flush appends or binary-searches and a Barrier reads the
	// runs straight off it. Allocated on first Flush: a thread that only
	// ever streams (or never writes) carries no queue, which matters when
	// thousands of idle tenants each hold a Batch.
	pending []int64
	// sink, when set, receives one span event per Flush/stream/Barrier so
	// a sampled operation's span carries its persist history. The sink is
	// the owning thread (which no-ops when no span is open), so the
	// disabled cost is one nil check.
	sink telemetry.SpanSink
}

// SetSink attaches a span-event sink to the batch. Pass nil to detach.
func (b *Batch) SetSink(s telemetry.SpanSink) { b.sink = s }

// NewBatch creates a write-combining persist queue for the device.
func (d *Device) NewBatch() *Batch {
	return &Batch{dev: d}
}

// Flush queues a clwb for every cache line overlapping [off, off+n).
// Lines already queued in this epoch are absorbed.
func (b *Batch) Flush(off, n int64) {
	if n <= 0 {
		return
	}
	first := off / LineSize * LineSize
	last := (off + n - 1) / LineSize * LineSize
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvFlush, first, (last-first)/LineSize+1)
	}
	b.dev.check(off, n)
	if b.pending == nil {
		b.pending = make([]int64, 0, 32)
	}
	for l := first; l <= last; l += LineSize {
		if q := len(b.pending); q == 0 || l > b.pending[q-1] {
			b.pending = append(b.pending, l)
		} else if i, dup := slices.BinarySearch(b.pending, l); dup {
			b.dev.Stats.BatchDedup.Add(1)
		} else {
			b.pending = slices.Insert(b.pending, i, l)
		}
	}
}

// WriteStream writes p (line-aligned, whole lines) with non-temporal
// stores: no clwb is queued, and the content is durable at the next
// Barrier.
func (b *Batch) WriteStream(off int64, p []byte) {
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvNTStore, off, int64(len(p)))
	}
	b.dev.WriteNT(off, p)
}

// ZeroStream zeroes [off, off+n) (line-aligned) with non-temporal stores.
func (b *Batch) ZeroStream(off, n int64) {
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvNTStore, off, n)
	}
	b.dev.ZeroNT(off, n)
}

// Pending returns the number of queued (not yet written back) lines.
func (b *Batch) Pending() int { return len(b.pending) }

// Barrier ends the current ordering epoch: it drains the queue — one
// clwb per unique line, adjacent lines merged into ranged flushes — and
// issues one fence. Everything flushed or streamed before the Barrier is
// durable when it returns.
func (b *Batch) Barrier() {
	Killpoint("pmem.batch.barrier")
	b.barrier()
}

// Commit is the trusted kernel's Drain: a Barrier only if lines are
// queued, and no killpoint — kernel fences are not the crash points under
// test.
func (b *Batch) Commit() {
	if len(b.pending) > 0 {
		b.barrier()
	}
}

func (b *Batch) barrier() {
	drained := int64(len(b.pending))
	if len(b.pending) > 0 {
		runStart, runEnd := b.pending[0], b.pending[0]+LineSize
		for _, l := range b.pending[1:] {
			if l == runEnd {
				runEnd += LineSize
				continue
			}
			b.dev.Flush(runStart, runEnd-runStart)
			runStart, runEnd = l, l+LineSize
		}
		b.dev.Flush(runStart, runEnd-runStart)
		b.pending = b.pending[:0]
	}
	b.dev.Fence()
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvFence, drained, 0)
	}
}

// Drain issues a Barrier only if lines are queued. Call sites that must
// guarantee "nothing in flight" (ownership transfer to the kernel) use it
// to avoid paying a fence in the common already-drained case.
func (b *Batch) Drain() {
	if len(b.pending) > 0 {
		Killpoint("pmem.batch.drain")
		b.Barrier()
	}
}
