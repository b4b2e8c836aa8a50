package libfs

import (
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// This file is the LibFS half of the arcktrace span pipeline. A span opens
// at the fsapi entry point (beginOp), collects child events from every
// layer the operation touches — persist-batch flushes and fences via
// Thread.SpanEvent, kernel crossings via crossStart/crossEnd, shard-lock
// waits via the sink handed to the kernel's *Observed variants, lease
// hits and misses at the fast paths that avoid a crossing — and closes at
// endOp into the tracer's per-thread ring. Everything here is nil-safe
// and sampling-aware: with no tracer attached, or on an unsampled
// operation, the extra cost is a nil check per hook.

// SetObservability attaches the span tracer and the application's row of
// the per-app counter dimension (core.NewApp wires both). Either may be
// nil: a nil tracer disables span collection, a nil row disables per-app
// attribution, and neither affects correctness.
func (fs *FS) SetObservability(tr *span.Tracer, row *telemetry.AppRow) {
	fs.tracer = tr
	fs.appRow = row
}

// Tracer returns the attached span tracer, or nil.
func (fs *FS) Tracer() *span.Tracer { return fs.tracer }

// SpanEvent implements telemetry.SpanSink: the thread is its own persist
// batch's sink, so pmem.Batch reports flushes, streaming stores, and
// fences here without importing the span package. Per-app persist
// counters accumulate on every operation, in the device's units: the
// lines a fence wrote back (a queued flush may still be absorbed), the
// lines a streaming store wrote. The event reaches a span only while a
// sampled operation has one open.
func (t *Thread) SpanEvent(kind uint8, a, b int64) {
	if r := t.fs.appRow; r != nil {
		switch kind {
		case telemetry.SpanEvFence:
			r.Add(telemetry.AppFlushes, a) // a = unique lines drained
			r.Add(telemetry.AppFences, 1)
		case telemetry.SpanEvNTStore:
			r.Add(telemetry.AppNTStores, b/pmem.LineSize) // b = bytes streamed
		}
	}
	t.sp.Event(kind, a, b)
}

// beginOp opens a causal span for one fsapi operation and counts it in
// the per-app dimension. It returns nil — and the operation runs
// untraced — when tracing is disabled, the operation lost the sampling
// draw, or a span is already open (a nested entry point records into its
// parent instead of starting over).
func (t *Thread) beginOp(op fsapi.Op) *span.Span {
	t.fs.appRow.Add(telemetry.AppOps, 1)
	if t.sp != nil || t.tl == nil {
		return nil
	}
	sp := t.tl.Begin(op, int64(t.fs.app))
	t.sp = sp
	return sp
}

// endOp closes the span beginOp opened. It is designed to be deferred in
// one line with a pointer to the named return error:
//
//	func (t *Thread) Create(path string) (err error) {
//		defer t.endOp(t.beginOp(fsapi.OpCreate), &err)
//
// Per-app operation latency is recorded from sampled spans only, so its
// histogram costs nothing on the unsampled path.
func (t *Thread) endOp(sp *span.Span, err *error) {
	if sp == nil {
		return
	}
	t.sp = nil
	t.tl.End(sp, *err)
	t.fs.appRow.RecordLatency(sp.DurNS)
}

// sink returns the thread as a span sink only while a sampled span is
// open, and a true nil interface otherwise — kernel code checks
// `sink != nil`, so handing it a typed nil would defeat the check.
// Safe on a nil thread (paths with no thread pass the nil sink through).
func (t *Thread) sink() telemetry.SpanSink {
	if t == nil || t.sp == nil {
		return nil
	}
	return t
}

// crossStart begins timing a kernel crossing; it returns the zero time —
// and crossEnd stays silent — unless a sampled span is open, so the
// unsampled path never reads the clock.
func (t *Thread) crossStart() time.Time {
	if t == nil || t.sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// crossEnd attaches a timed kernel-crossing event (kind tells which
// syscall) to the open span.
func (t *Thread) crossEnd(kind telemetry.EventKind, begin time.Time) {
	if t == nil || t.sp == nil || begin.IsZero() {
		return
	}
	t.sp.Event(telemetry.SpanEvCrossing, int64(kind), time.Since(begin).Nanoseconds())
}

// CurrentSpan returns the span of the operation in flight on this
// thread, or nil when none is open (tracing off, sampling skipped the
// op, or the thread is idle). Diagnostic consumers — the crashmc flight
// recorder observing mid-operation — use it to include the interrupted
// operation's history, which the rings do not hold yet. Must be called
// from the thread's own goroutine (or a hook it runs synchronously).
func (t *Thread) CurrentSpan() *span.Span { return t.sp }

// spanEv attaches a raw event to the open span, if any. Safe on a nil
// thread.
func (t *Thread) spanEv(kind uint8, a, b int64) {
	if t == nil {
		return
	}
	t.sp.Event(kind, a, b)
}
