// Package epochdrain exercises the batch-drain rule: a pmem.Batch minted
// in a function must reach Barrier/Drain or be handed off on every
// return path, early error returns included.
package epochdrain

import "fixture/internal/pmem"

type holder struct{ pb *pmem.Batch }

type failure struct{}

func (failure) Error() string { return "failure" }

// leakyEarlyReturn drops the batch, lines still queued, on the error
// path.
func leakyEarlyReturn(dev *pmem.Device, fail bool) error {
	b := dev.NewBatch() // want "without Barrier/Drain or a handoff"
	b.Flush(0, 64)
	if fail {
		return failure{}
	}
	b.Barrier()
	return nil
}

// drainedEarlyReturn writes the queue back before every exit.
func drainedEarlyReturn(dev *pmem.Device, fail bool) error {
	b := dev.NewBatch()
	b.Flush(0, 64)
	if fail {
		b.Drain()
		return failure{}
	}
	b.Barrier()
	return nil
}

// deferredBarrier covers all paths at once.
func deferredBarrier(dev *pmem.Device, fail bool) error {
	b := dev.NewBatch()
	defer b.Barrier()
	b.Flush(0, 64)
	if fail {
		return failure{}
	}
	return nil
}

// structHandoff escapes into a struct: the holder drains it later.
func structHandoff(dev *pmem.Device) *holder {
	b := dev.NewBatch()
	b.Flush(0, 64)
	return &holder{pb: b}
}

// callHandoff passes the batch on; the callee owns draining it.
func callHandoff(dev *pmem.Device) {
	b := dev.NewBatch()
	b.Flush(0, 64)
	finish(b)
}

func finish(b *pmem.Batch) { b.Barrier() }

// neverDrained has no error path at all, just a missing Barrier.
func neverDrained(dev *pmem.Device) {
	b := dev.NewBatch() // want "without Barrier/Drain or a handoff"
	b.ZeroStream(0, 4096)
	b.Flush(4096, 64)
}

// rebound replaces the empty first batch before queuing anything; only
// the live binding must drain.
func rebound(dev *pmem.Device, fresh bool) {
	b := dev.NewBatch()
	if fresh {
		b = dev.NewBatch()
	}
	b.Flush(0, 64)
	b.Barrier()
}
