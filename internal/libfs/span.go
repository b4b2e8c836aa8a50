package libfs

import (
	"time"

	"arckfs/internal/fsapi"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// This file is the LibFS half of the arcktrace span pipeline, and the
// home of the application's own row (Stats.Ops, Syscalls, Flushes,
// Fences, NTStores and the latency histogram). A span opens at the fsapi
// entry point (beginOp), collects child events from every layer the
// operation touches — persist-batch flushes and fences via
// Thread.SpanEvent, kernel crossings via cross/done, shard-lock waits via
// the sink handed to the kernel's AcquireBatch and Transfer, lease hits
// and misses at the fast paths that avoid a crossing — and closes at endOp
// into the tracer's per-thread ring. Everything here is nil-safe and
// sampling-aware: with no tracer attached, or on an unsampled operation,
// the extra cost is a nil check per hook.

// SetTracer attaches the span tracer (core.NewApp wires it). A nil tracer
// disables span collection and does not affect correctness.
func (fs *FS) SetTracer(tr *span.Tracer) { fs.tracer = tr }

// Tracer returns the attached span tracer, or nil.
func (fs *FS) Tracer() *span.Tracer { return fs.tracer }

// Latency returns the application's operation-latency histogram, fed from
// sampled spans: nil until the first sampled operation ends.
func (fs *FS) Latency() *telemetry.Histogram { return fs.lat.Load() }

// SpanEvent implements telemetry.SpanSink: the thread is its own persist
// batch's sink, so pmem.Batch reports flushes, streaming stores, and
// fences here without importing the span package. The app's persist
// counters accumulate on every operation, in the device's units: the
// lines a fence wrote back (a queued flush may still be absorbed), the
// lines a streaming store wrote. The event reaches a span only while a
// sampled operation has one open.
func (t *Thread) SpanEvent(kind uint8, a, b int64) {
	switch st := &t.fs.Stats; kind {
	case telemetry.SpanEvFence:
		st.Flushes.Add(a) // a = unique lines drained
		st.Fences.Add(1)
	case telemetry.SpanEvNTStore:
		st.NTStores.Add(b / pmem.LineSize) // b = bytes streamed
	}
	t.sp.Event(kind, a, b)
}

// beginOp opens a causal span for one fsapi operation and counts it in
// Stats.Ops. It returns nil — and the operation runs untraced — when
// tracing is disabled, the operation lost the sampling draw, or a span is
// already open (a nested entry point records into its parent instead of
// starting over).
func (t *Thread) beginOp(op fsapi.Op) *span.Span {
	t.fs.Stats.Ops.Add(1)
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
// Operation latency is recorded from sampled spans only, so its histogram
// costs nothing on the unsampled path; it is made on first use, because an
// idle tenant must stay a few hundred bytes.
func (t *Thread) endOp(sp *span.Span, err *error) {
	if sp == nil {
		return
	}
	t.sp = nil
	t.tl.End(sp, *err)
	h := t.fs.lat.Load()
	if h == nil {
		t.fs.lat.CompareAndSwap(nil, telemetry.NewHistogram())
		h = t.fs.lat.Load()
	}
	h.Record(sp.DurNS)
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

// crossing is one kernel crossing the application makes, from cross to
// done.
type crossing struct {
	fs    *FS
	sp    *span.Span
	begin time.Time
}

// cross begins a kernel crossing made on behalf of sp, the sampled span
// that pays it (nil for none: the clock is then never read).
func (fs *FS) cross(sp *span.Span) crossing {
	c := crossing{fs: fs, sp: sp}
	if sp != nil {
		c.begin = time.Now()
	}
	return c
}

// done ends the crossing. It is the one place a LibFS counts a crossing
// (Stats.Syscalls), and it attaches the crossing to its span, timed, as
// event ev with payload a: a SpanEvCrossing's a is the crossing's
// EventKind, a batch event's the inodes it moved.
func (c crossing) done(ev uint8, a int64) {
	c.fs.Stats.Syscalls.Add(1)
	if c.sp != nil {
		c.sp.Event(ev, a, time.Since(c.begin).Nanoseconds())
	}
}

// CurrentSpan returns the span of the operation in flight on this
// thread, or nil when none is open (tracing off, sampling skipped the
// op, the thread is idle, or there is no thread). Diagnostic consumers —
// the crashmc flight recorder observing mid-operation — use it to include
// the interrupted operation's history, which the rings do not hold yet.
// Must be called from the thread's own goroutine (or a hook it runs
// synchronously).
func (t *Thread) CurrentSpan() *span.Span {
	if t == nil {
		return nil
	}
	return t.sp
}

// spanEv attaches a raw event to the open span, if any. Safe on a nil
// thread.
func (t *Thread) spanEv(kind uint8, a, b int64) {
	t.CurrentSpan().Event(kind, a, b)
}
