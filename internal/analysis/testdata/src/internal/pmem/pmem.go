// Package pmem mimics the real persistence API surface so analyzer
// fixtures exercise the same symbol tables the checkers match on. The
// bodies are irrelevant; only the (package suffix, type, method) shapes
// matter.
package pmem

type Device struct{}

func (d *Device) Write(off int64, p []byte)   {}
func (d *Device) Zero(off, n int64)           {}
func (d *Device) Store8(off int64, v uint8)   {}
func (d *Device) Store16(off int64, v uint16) {}
func (d *Device) Store32(off int64, v uint32) {}
func (d *Device) Store64(off int64, v uint64) {}
func (d *Device) WriteNT(off int64, p []byte) {}
func (d *Device) ZeroNT(off, n int64)         {}
func (d *Device) Flush(off, n int64)          {}
func (d *Device) Fence()                      {}
func (d *Device) Persist(off, n int64)        {}
func (d *Device) NewBatch() *Batch            { return &Batch{} }

type Batch struct{}

func (b *Batch) Flush(off, n int64)              {}
func (b *Batch) WriteStream(off int64, p []byte) {}
func (b *Batch) ZeroStream(off, n int64)         {}
func (b *Batch) Barrier()                        {}
func (b *Batch) Drain()                          {}
func (b *Batch) Pending() int                    { return 0 }
