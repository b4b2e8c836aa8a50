// Interprocedural variants: the body store or the barrier hides one or
// two calls down, behind an interface, inside a bound function literal,
// or behind a method value; the checker sees it through effect
// summaries.
package persistorder

import (
	"fixture/internal/layout"
	"fixture/internal/libfs"
	"fixture/internal/pmem"
)

// writeBody queues dentry-body bytes: its summary carries MayStoreBody.
func writeBody(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.WriteDentryBody(dev, r, 7, "n")
	b.Flush(r.DevOff(), 64)
}

func writeBodyDeep(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	writeBody(b, dev, r)
}

// sealed ends every path on a Barrier: AlwaysClean, so calling it clears
// the caller's epoch.
func sealed(b *pmem.Batch) { b.Barrier() }

// oneDeep commits with the body store hidden one call down. The leading
// Barrier proves the dirt comes from the summary, not the unknown-caller
// entry state.
func oneDeep(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	b.Barrier()
	writeBody(b, dev, r)
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// twoDeep hides the body store two calls down.
func twoDeep(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	b.Barrier()
	writeBodyDeep(b, dev, r)
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// cleanViaHelper: the helper's terminating Barrier cleans the epoch just
// as a direct Barrier would.
func cleanViaHelper(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	writeBody(b, dev, r)
	sealed(b)
	layout.CommitDentry(dev, r, 1)
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// sealUnlessBug's summary follows the bug-flag pruning: on ArckFS+'s
// path it always ends on a Barrier, so it is AlwaysClean.
func sealUnlessBug(b *pmem.Batch, bugs libfs.Bugs) {
	if !bugs.Has(libfs.BugMissingFence) {
		b.Barrier()
	}
}

func cleanViaBugHelper(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef, bugs libfs.Bugs) {
	writeBody(b, dev, r)
	sealUnlessBug(b, bugs)
	layout.CommitDentry(dev, r, 1)
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

type bodyWriter interface {
	write(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef)
}

type dentryWriter struct{}

func (dentryWriter) write(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.WriteDentryBody(dev, r, 9, "m")
	b.Flush(r.DevOff(), 64)
}

// viaInterface resolves the body store through the interface's single
// implementation.
func viaInterface(w bodyWriter, b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	b.Barrier()
	w.write(b, dev, r)
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// viaClosure reaches the body store through a bound function literal.
func viaClosure(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	fill := func() {
		layout.WriteDentryBody(dev, r, 3, "c")
		b.Flush(r.DevOff(), 64)
	}
	b.Barrier()
	fill()
	layout.CommitDentry(dev, r, 1) // want "no Batch.Barrier dominates this call"
	b.Flush(r.MarkerOff(), 2)
	b.Barrier()
}

// methodValue binds Barrier to a local; the call through the binding
// must still end the epoch (regression for method-value resolution).
func methodValue(b *pmem.Batch, dev *pmem.Device, r layout.DentryRef) {
	layout.WriteDentryBody(dev, r, 7, "z")
	b.Flush(r.DevOff(), 64)
	seal := b.Barrier
	seal()
	layout.CommitDentry(dev, r, 1)
	b.Flush(r.MarkerOff(), 2)
	seal()
}
