package telemetry

import "fmt"

// SpanSink receives low-level child events for the operation span that is
// currently open on the calling thread. It is the wire between the layers
// that witness interesting moments (pmem's persist batcher, the kernel's
// shard locks, recovery) and the span recorder in telemetry/span — the
// producers emit through this two-method-free interface so they need not
// import the span package (or anything above them).
//
// Implementations must be cheap when no span is open: the LibFS thread
// sink is a nil-check and return. Producers hold a SpanSink for the
// duration of one operation only and never call it concurrently.
type SpanSink interface {
	// SpanEvent records one child event. kind is a SpanEv* constant; the
	// a/b payloads are kind-specific and documented per constant.
	SpanEvent(kind uint8, a, b int64)
}

// Span child-event kinds. Producers across pmem, kernel, and libfs share
// this one namespace so a span's event list reads as a single causal
// history.
const (
	// SpanEvFlush: cache-line write-backs queued. a = byte offset of the
	// first line, b = number of lines.
	SpanEvFlush uint8 = iota + 1
	// SpanEvNTStore: a non-temporal streaming store. a = byte offset,
	// b = length in bytes.
	SpanEvNTStore
	// SpanEvFence: an ordering-epoch boundary (sfence). a = unique lines
	// written back by the drain that preceded it.
	SpanEvFence
	// SpanEvCrossing: one kernel crossing completed. a = the EventKind
	// of the crossing (EvAcquire, EvCommit, ...), b = its duration in
	// nanoseconds.
	SpanEvCrossing
	// SpanEvLeaseHit: a kernel crossing was elided by a grant lease or a
	// dormant-mapping reactivation. a = inode (0 for page grants).
	SpanEvLeaseHit
	// SpanEvLeaseMiss: the lease fast path failed and the operation paid
	// the crossing. a = inode (0 for page grants).
	SpanEvLeaseMiss
	// SpanEvShardWait: a kernel shard lock was contended and the caller
	// blocked. a = shard index, b = wait in nanoseconds.
	SpanEvShardWait
	// SpanEvRecoveryPass: one mount-time recovery pass finished. a = pass
	// index (0-based, in Mount order), b = duration in nanoseconds.
	SpanEvRecoveryPass
	// SpanEvAdmitWait: the crossing queued in the fair-share admission
	// scheduler before being admitted. a = app id, b = wait in
	// nanoseconds.
	SpanEvAdmitWait
	// SpanEvDirCompact: a release rewrote a directory's dentry log before
	// handing it back. a = inode, b = duration in nanoseconds.
	SpanEvDirCompact
	// SpanEvReleaseBatch: one vectored release crossing completed.
	// a = inodes released by the crossing, b = its duration in nanoseconds.
	SpanEvReleaseBatch
	// SpanEvAcquireBatch: one vectored acquire crossing completed — a
	// lease miss taking back the working set. a = inodes it mapped, b = its
	// duration in nanoseconds.
	SpanEvAcquireBatch
)

var spanEventNames = [...]string{
	SpanEvFlush:        "flush",
	SpanEvNTStore:      "ntstore",
	SpanEvFence:        "fence",
	SpanEvCrossing:     "crossing",
	SpanEvLeaseHit:     "lease-hit",
	SpanEvLeaseMiss:    "lease-miss",
	SpanEvShardWait:    "shard-wait",
	SpanEvRecoveryPass: "recovery-pass",
	SpanEvAdmitWait:    "admit-wait",
	SpanEvDirCompact:   "dir-compact",
	SpanEvReleaseBatch: "release-batch",
	SpanEvAcquireBatch: "acquire-batch",
}

// EventKind says which kernel crossing a SpanEvCrossing event timed. A
// vectored release or acquire is not one of them: each has its own event,
// SpanEvReleaseBatch and SpanEvAcquireBatch, because its payload is an
// inode count.
type EventKind uint8

// Crossing kinds.
const (
	EvAcquire EventKind = iota + 1
	EvCommit
	EvGrantInodes
	EvGrantPages
	EvRenameLockAcquire
)

var eventKindNames = [...]string{
	EvAcquire:           "acquire",
	EvCommit:            "commit",
	EvGrantInodes:       "grant-inodes",
	EvGrantPages:        "grant-pages",
	EvRenameLockAcquire: "rename-lock-acquire",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// SpanEventName returns the display name of a SpanEv* kind.
func SpanEventName(kind uint8) string {
	if int(kind) < len(spanEventNames) && spanEventNames[kind] != "" {
		return spanEventNames[kind]
	}
	return fmt.Sprintf("span-event(%d)", kind)
}
