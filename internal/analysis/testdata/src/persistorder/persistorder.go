// Package persistorder reconstructs the §4.2 create sequence: the
// artifact persisted a dentry's body and its commit marker in the same
// ordering epoch, so the marker's cache line could reach persistence
// first and a crash between them replayed a committed marker over an
// unwritten body.
package persistorder

import (
	"fixture/internal/layout"
	"fixture/internal/libfs"
	"fixture/internal/pmem"
)

// buggyCreate is the shipped ArckFS sequence: body flush and marker
// store with no Barrier between them.
func buggyCreate(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.WriteDentryBody(dev, r, 7, "name")
	b.Flush(r.DevOff(), 64)
	layout.CommitDentry(dev, r, 4) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// patchedCreate is the fixed sequence: the Barrier ends the body epoch
// before the marker is set, so the marker can never persist first.
func patchedCreate(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.WriteDentryBody(dev, r, 7, "name")
	b.Flush(r.DevOff(), 64)
	b.Barrier()
	layout.CommitDentry(dev, r, 4)
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// conditionalFence barriers on only one branch; the unfenced path must
// still be flagged — domination means every path.
func conditionalFence(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef, fenced bool) {
	layout.WriteDentryBody(dev, r, 7, "x")
	b.Flush(r.DevOff(), 64)
	if fenced {
		b.Barrier()
	}
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// fenceUnlessBug is persistDentry's shape: only a bug flag skips the
// Barrier, and ArckFS+ (no flags) always takes it, so the marker is
// ordered on every path the patched system runs.
func fenceUnlessBug(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef, bugs libfs.Bugs) {
	layout.WriteDentryBody(dev, r, 7, "x")
	b.Flush(r.DevOff(), 64)
	if !bugs.Has(libfs.BugMissingFence) {
		b.Barrier()
	}
	layout.CommitDentry(dev, r, 1)
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// storeUnderBug: a body store that only a bug flag reaches does not
// dirty ArckFS+'s epoch.
func storeUnderBug(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef, bugs libfs.Bugs) {
	layout.WriteDentryBody(dev, r, 7, "x")
	b.Barrier()
	if bugs.Has(libfs.BugMissingFence) {
		b.Flush(r.DevOff(), 64)
	}
	layout.CommitDentry(dev, r, 1)
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// compoundBugCond: only a condition that is exactly a bug-flag test is
// pruned; this one is walked both ways, like conditionalFence.
func compoundBugCond(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef, isDir bool, bugs libfs.Bugs) {
	layout.WriteDentryBody(dev, r, 7, "x")
	b.Flush(r.DevOff(), 64)
	if isDir && !bugs.Has(libfs.BugMissingFence) {
		b.Barrier()
	}
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// storedBugFlag: a flag held in a variable is walked both ways too.
func storedBugFlag(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef, bugs libfs.Bugs) {
	skip := bugs.Has(libfs.BugMissingFence)
	layout.WriteDentryBody(dev, r, 7, "x")
	b.Flush(r.DevOff(), 64)
	if !skip {
		b.Barrier()
	}
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// batchCommit is the bulk-create customization shape: one Barrier ends
// the whole batch's body epoch, then every marker is set and flushed.
// The marker-line flushes inside the loop must not count as body stores.
func batchCommit(b *pmem.Batch, dev *pmem.Device, refs []layout.DentryRef) {
	for _, r := range refs {
		layout.WriteDentryBody(dev, r, 7, "x")
		b.Flush(r.DevOff(), 64)
	}
	b.Barrier()
	for _, r := range refs {
		layout.CommitDentry(dev, r, 1)
		b.Flush(r.MarkerOff(), 2)
	}
	b.Barrier()
}

// freshEntry performs no body store itself, but the caller's queue
// contents are unknown: committing without an own Barrier is flagged.
func freshEntry(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// drainIsNotAFence: Drain writes the queue back but issues no fence, so
// the marker's clwb can still overtake the body's — only Barrier orders.
func drainIsNotAFence(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.WriteDentryBody(dev, r, 7, "y")
	b.Flush(r.DevOff(), 64)
	b.Drain()
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}
