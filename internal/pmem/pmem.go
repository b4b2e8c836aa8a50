// Package pmem simulates byte-addressable persistent memory with an
// x86-like persistency model (clwb + sfence), including crash simulation.
//
// The device keeps a volatile image (what CPUs see through the cache
// hierarchy) and, when tracking is enabled, enough per-cache-line history
// to materialize every crash state the hardware model admits:
//
//   - Stores become visible in the volatile image immediately and are
//     recorded as per-line versions (stores to one line are ordered, so a
//     crash persists a *prefix* of a line's store history).
//   - Flush (clwb) initiates write-back of a line's current content but
//     guarantees nothing by itself.
//   - Fence (sfence) guarantees that all previously flushed content has
//     reached the persistence domain.
//   - At a crash, everything fenced is durable; any dirty or
//     flushed-but-not-fenced line may additionally have persisted any
//     prefix of its store history (cache eviction and in-flight
//     write-backs are not ordered across lines).
//
// This is the model under which the §4.2 bug of the ArckFS+ paper — a
// missing fence allowing a directory entry with a valid commit marker to
// be only partially persisted — is expressible and testable.
//
// Tracking is off by default; in that mode stores and flushes only update
// the volatile image and cost/statistics counters, which is what the
// benchmarks use.
//
// Every store also sets its page's dirty bit, the model of a PTE dirty bit:
// the store sets it, nothing else does, and only the kernel reads and clears
// it (ClearDirty) — it is how a directory verification knows which log
// pages it must parse again.
package pmem

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"arckfs/internal/costmodel"
	"arckfs/internal/telemetry"
)

// LineSize is the cache line size of the simulated machine.
const LineSize = 64

// PageSize is the allocation granularity used by the file systems above.
const PageSize = 4096

// Stats counts persistence-relevant events on a device.
type Stats struct {
	Stores   atomic.Int64 // individual store operations
	Bytes    atomic.Int64 // bytes stored
	Flushes  atomic.Int64 // cache lines flushed
	Fences   atomic.Int64 // persist barriers issued
	NTStores atomic.Int64 // cache lines written with streaming stores
	// BatchDedup counts cache-line flush requests a write-combining
	// Batch absorbed because the line was already queued in the current
	// ordering epoch (see batch.go). Each is one clwb the unbatched code
	// would have issued.
	BatchDedup atomic.Int64
	// LiedFlushes, LiedFences and TornLines count device lies told under
	// an attached FaultPlan (see fault.go): line write-backs silently
	// dropped, fences that persisted nothing, and lines torn at a byte
	// split during crash-image materialization.
	LiedFlushes atomic.Int64
	LiedFences  atomic.Int64
	TornLines   atomic.Int64
}

// RegisterTelemetry exposes the device's persistence counters in set
// under the "pmem." namespace.
func (d *Device) RegisterTelemetry(set *telemetry.Set) {
	set.Gauge("pmem.stores", d.Stats.Stores.Load)
	set.Gauge("pmem.bytes", d.Stats.Bytes.Load)
	set.Gauge("pmem.flushes", d.Stats.Flushes.Load)
	set.Gauge("pmem.fences", d.Stats.Fences.Load)
	set.Gauge("pmem.ntstores", d.Stats.NTStores.Load)
	set.Gauge("pmem.batch_dedup", d.Stats.BatchDedup.Load)
	set.Gauge("pmem.lies.dropped_flushes", d.Stats.LiedFlushes.Load)
	set.Gauge("pmem.lies.dropped_fences", d.Stats.LiedFences.Load)
	set.Gauge("pmem.lies.torn_lines", d.Stats.TornLines.Load)
	set.Gauge("pmem.mapped_bytes", d.mappedBytes)
}

// lineTrack records the unpersisted store history of one cache line.
type lineTrack struct {
	// versions[i] is the line's content after the (i+1)-th tracked store
	// batch since the last fence that persisted it.
	versions [][]byte
	// flushedVer is the number of leading versions covered by an issued
	// clwb (persisted at the next fence); 0 if none.
	flushedVer int
}

// Device is a simulated persistent-memory module.
//
// Every method that touches buf ends with runtime.KeepAlive(d): buf may be
// a mapping that a finalizer unmaps once the device is unreachable (see
// mapping), so the device must stay reachable until the last access, as an
// os.File must until its last read.
type Device struct {
	buf  []byte
	mem  *mapping // owns buf for a device New made
	cost *costmodel.Model

	tracking atomic.Bool
	mu       sync.Mutex // guards persistent and lines when tracking
	// persistent is the fenced (guaranteed durable) image; valid only
	// while tracking.
	persistent []byte
	lines      map[int64]*lineTrack
	// obs, when set, is the device's observer: every tracked fence and
	// every Killpoint site reaches it (see killpoint.go).
	obs func(site string)
	// fault, when set, is the device's lie schedule (see fault.go).
	fault *FaultPlan
	// dirty holds one bit per page, set by every store to the page once its
	// bytes are in place and cleared only by ClearDirty. A new device starts
	// with every bit set: nothing has been verified against it yet.
	dirty []atomic.Uint64

	Stats Stats
}

// mapping is the memory of a device New made. In a build that maps devices
// (mem_mapped.go) buf lies outside the Go heap, and a finalizer on the
// mapping, not on the Device, unmaps it: the mapping refers to no Go object, so
// a device caught in a cycle (an observer that refers to it) is still
// collected and unmapped. Under -race, or off unix, buf is on the heap
// (mem_heap.go).
type mapping struct{ buf []byte }

// New creates a device of the given size in bytes (rounded up to a page).
// cost may be nil for zero simulated latency.
func New(size int64, cost *costmodel.Model) *Device {
	m := newMapping(pageRound(size))
	d := newDevice(m.buf, cost)
	d.mem = m
	return d
}

// pageRound rounds a positive device size up to a whole page.
func pageRound(size int64) int64 {
	if size <= 0 {
		panic("pmem: non-positive device size")
	}
	return (size + PageSize - 1) / PageSize * PageSize
}

func newDevice(buf []byte, cost *costmodel.Model) *Device {
	dirty := make([]atomic.Uint64, (len(buf)/PageSize+63)/64)
	for i := range dirty {
		dirty[i].Store(^uint64(0))
	}
	return &Device{buf: buf, cost: cost, dirty: dirty}
}

// mappedBytes is the device memory mapped outside the Go heap: the size of
// a device New mapped, 0 for one on the heap.
func (d *Device) mappedBytes() int64 {
	if !mapsDevices || d.mem == nil {
		return 0
	}
	return int64(len(d.buf))
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return int64(len(d.buf)) }

// Cost returns the device's cost model (possibly nil).
func (d *Device) Cost() *costmodel.Model { return d.cost }

// EnableTracking snapshots the current volatile image as the durable
// baseline and begins recording store/flush/fence history for crash
// simulation. The device must be quiescent (no concurrent operations).
func (d *Device) EnableTracking() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.persistent = make([]byte, len(d.buf))
	copy(d.persistent, d.buf)
	runtime.KeepAlive(d)
	d.lines = make(map[int64]*lineTrack)
	d.tracking.Store(true)
}

// DisableTracking stops recording history and releases it.
func (d *Device) DisableTracking() {
	d.tracking.Store(false)
	d.mu.Lock()
	d.persistent = nil
	d.lines = nil
	d.mu.Unlock()
}

// Tracking reports whether crash tracking is enabled.
func (d *Device) Tracking() bool { return d.tracking.Load() }

func (d *Device) check(off, n int64) {
	if off < 0 || n < 0 || off+n > int64(len(d.buf)) {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside device of %d bytes", off, off+n, len(d.buf)))
	}
}

// recordStore appends post-store snapshots for every line overlapping
// [off, off+n).
func (d *Device) recordStore(off, n int64) {
	first := off / LineSize
	last := (off + n - 1) / LineSize
	d.mu.Lock()
	for l := first; l <= last; l++ {
		lt := d.lines[l]
		if lt == nil {
			lt = &lineTrack{}
			d.lines[l] = lt
		}
		snap := make([]byte, LineSize)
		copy(snap, d.buf[l*LineSize:(l+1)*LineSize])
		lt.versions = append(lt.versions, snap)
	}
	d.mu.Unlock()
	runtime.KeepAlive(d)
}

// Write stores p at off.
func (d *Device) Write(off int64, p []byte) {
	d.check(off, int64(len(p)))
	copy(d.buf[off:], p)
	d.markDirty(off, int64(len(p)))
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(int64(len(p)))
	d.cost.PMWrite(len(p))
	if d.tracking.Load() {
		d.recordStore(off, int64(len(p)))
	}
	runtime.KeepAlive(d)
}

// Zero stores n zero bytes at off.
func (d *Device) Zero(off, n int64) {
	d.check(off, n)
	b := d.buf[off : off+n]
	for i := range b {
		b[i] = 0
	}
	d.markDirty(off, n)
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(n)
	d.cost.PMWrite(int(n))
	if d.tracking.Load() {
		d.recordStore(off, n)
	}
	runtime.KeepAlive(d)
}

// Store8 stores one byte.
func (d *Device) Store8(off int64, v uint8) {
	d.check(off, 1)
	d.buf[off] = v
	d.markDirty(off, 1)
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(1)
	if d.tracking.Load() {
		d.recordStore(off, 1)
	}
	runtime.KeepAlive(d)
}

// Store16 stores a little-endian uint16.
func (d *Device) Store16(off int64, v uint16) {
	d.check(off, 2)
	binary.LittleEndian.PutUint16(d.buf[off:], v)
	d.markDirty(off, 2)
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(2)
	if d.tracking.Load() {
		d.recordStore(off, 2)
	}
	runtime.KeepAlive(d)
}

// Store32 stores a little-endian uint32.
func (d *Device) Store32(off int64, v uint32) {
	d.check(off, 4)
	binary.LittleEndian.PutUint32(d.buf[off:], v)
	d.markDirty(off, 4)
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(4)
	if d.tracking.Load() {
		d.recordStore(off, 4)
	}
	runtime.KeepAlive(d)
}

// Store64 stores a little-endian uint64.
func (d *Device) Store64(off int64, v uint64) {
	d.check(off, 8)
	binary.LittleEndian.PutUint64(d.buf[off:], v)
	d.markDirty(off, 8)
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(8)
	if d.tracking.Load() {
		d.recordStore(off, 8)
	}
	runtime.KeepAlive(d)
}

// WriteNT stores p at off with non-temporal (streaming, movnt-style)
// stores. The write bypasses the cache hierarchy: no clwb is needed, and
// the content is guaranteed durable after the next Fence. Both off and
// len(p) must be cache-line aligned — streaming stores write whole lines.
//
// In the crash model a non-temporal store behaves exactly like a store
// whose line was immediately flushed: until a fence it may persist any
// prefix of the line's store history (the write-combining buffer can
// drain at any time), after a fence it is durable.
func (d *Device) WriteNT(off int64, p []byte) {
	if off%LineSize != 0 || len(p)%LineSize != 0 {
		panic(fmt.Sprintf("pmem: non-temporal write [%d,%d) not line-aligned", off, off+int64(len(p))))
	}
	d.check(off, int64(len(p)))
	copy(d.buf[off:], p)
	d.markDirty(off, int64(len(p)))
	nl := int64(len(p) / LineSize)
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(int64(len(p)))
	d.Stats.NTStores.Add(nl)
	d.cost.NTStore(int(nl))
	if d.tracking.Load() {
		d.recordStore(off, int64(len(p)))
		d.markFlushed(off/LineSize, (off+int64(len(p))-1)/LineSize)
	}
	runtime.KeepAlive(d)
}

// ZeroNT stores n zero bytes at off with non-temporal stores. The same
// alignment and durability rules as WriteNT apply.
func (d *Device) ZeroNT(off, n int64) {
	if off%LineSize != 0 || n%LineSize != 0 {
		panic(fmt.Sprintf("pmem: non-temporal zero [%d,%d) not line-aligned", off, off+n))
	}
	d.check(off, n)
	b := d.buf[off : off+n]
	for i := range b {
		b[i] = 0
	}
	d.markDirty(off, n)
	nl := n / LineSize
	d.Stats.Stores.Add(1)
	d.Stats.Bytes.Add(n)
	d.Stats.NTStores.Add(nl)
	d.cost.NTStore(int(nl))
	if d.tracking.Load() {
		d.recordStore(off, n)
		d.markFlushed(off/LineSize, (off+n-1)/LineSize)
	}
	runtime.KeepAlive(d)
}

// markDirty sets the dirty bit of every page [off, off+n) touches. Store
// paths call it once the bytes are in place. The Or is unconditional, even
// when the bit is already set: it is the write that orders the store's
// bytes before the bit, so a ClearDirty that finds the bit set is
// synchronized after the store and the read that follows it sees the
// store; a ClearDirty before the Or leaves the bit set for the next. (A
// plain load that found the bit set would order nothing: a racing
// ClearDirty could clear the bit and read the page without the store.)
func (d *Device) markDirty(off, n int64) {
	if n <= 0 {
		return
	}
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		d.dirty[p/64].Or(uint64(1) << (p % 64))
	}
}

// Dirty reports whether page's dirty bit is set: the page was stored to
// since the bit was last cleared, or never cleared since the device was
// created.
func (d *Device) Dirty(page uint64) bool {
	return d.dirty[page/64].Load()&(uint64(1)<<(page%64)) != 0
}

// ClearDirty clears page's dirty bit and reports whether it was set. It is
// the kernel's alone: a caller that clears a bit and then reads the page
// sees every store whose bit it cleared, and every later store sets the bit
// again.
func (d *Device) ClearDirty(page uint64) bool {
	bit := uint64(1) << (page % 64)
	return d.dirty[page/64].And(^bit)&bit != 0
}

// markFlushed records that lines [first, last] have write-back initiated
// for their entire store history (clwb issued, or a streaming store that
// bypassed the cache). Under a FaultPlan with FaultDropFlush a line with
// unflushed history is a lie candidate: the write-back silently never
// initiates and the line stays dirty.
func (d *Device) markFlushed(first, last int64) {
	d.mu.Lock()
	for l := first; l <= last; l++ {
		lt := d.lines[l]
		if lt == nil || lt.flushedVer == len(lt.versions) {
			continue
		}
		if d.fault.dropFlush(l * LineSize) {
			d.Stats.LiedFlushes.Add(1)
			continue
		}
		lt.flushedVer = len(lt.versions)
	}
	d.mu.Unlock()
}

// Read copies n bytes at off into p.
func (d *Device) Read(off int64, p []byte) {
	d.check(off, int64(len(p)))
	copy(p, d.buf[off:])
	runtime.KeepAlive(d)
	d.cost.PMRead(len(p))
}

// Load8 loads one byte.
func (d *Device) Load8(off int64) uint8 {
	d.check(off, 1)
	v := d.buf[off]
	runtime.KeepAlive(d)
	return v
}

// Load16 loads a little-endian uint16.
func (d *Device) Load16(off int64) uint16 {
	d.check(off, 2)
	v := binary.LittleEndian.Uint16(d.buf[off:])
	runtime.KeepAlive(d)
	return v
}

// Load32 loads a little-endian uint32.
func (d *Device) Load32(off int64) uint32 {
	d.check(off, 4)
	v := binary.LittleEndian.Uint32(d.buf[off:])
	runtime.KeepAlive(d)
	return v
}

// Load64 loads a little-endian uint64.
func (d *Device) Load64(off int64) uint64 {
	d.check(off, 8)
	v := binary.LittleEndian.Uint64(d.buf[off:])
	runtime.KeepAlive(d)
	return v
}

// Slice returns a read-only view of [off, off+n). Callers must not write
// through it (writes would bypass tracking and statistics); it exists so
// hot read paths avoid copies. The view dies with its device: a caller
// keeps the device reachable while it reads the view, since a mapped
// device's memory is unmapped once the device is collected.
func (d *Device) Slice(off, n int64) []byte {
	d.check(off, n)
	d.cost.PMRead(int(n))
	v := d.buf[off : off+n : off+n]
	runtime.KeepAlive(d)
	return v
}

// Flush issues clwb for every cache line overlapping [off, off+n). The
// flushed content is guaranteed durable only after a subsequent Fence.
func (d *Device) Flush(off, n int64) {
	if n <= 0 {
		return
	}
	d.check(off, n)
	first := off / LineSize
	last := (off + n - 1) / LineSize
	nl := last - first + 1
	d.Stats.Flushes.Add(nl)
	d.cost.Flush(int(nl))
	if !d.tracking.Load() {
		return
	}
	d.markFlushed(first, last)
}

// Fence issues a persist barrier: all previously flushed line content
// becomes durable.
func (d *Device) Fence() {
	d.Stats.Fences.Add(1)
	d.cost.Fence()
	if !d.tracking.Load() {
		return
	}
	if d.obs != nil {
		d.obs(FenceSite)
	}
	d.mu.Lock()
	if d.fault.dropFence() {
		// The fence lies: the epoch's queued write-backs are dropped.
		// Every flushed-but-unpersisted line reverts to dirty — its clwb
		// is gone, and the software continues believing it durable.
		d.Stats.LiedFences.Add(1)
		for _, lt := range d.lines {
			lt.flushedVer = 0
		}
		d.mu.Unlock()
		return
	}
	for l, lt := range d.lines {
		if lt.flushedVer == 0 {
			continue
		}
		copy(d.persistent[l*LineSize:], lt.versions[lt.flushedVer-1])
		if lt.flushedVer == len(lt.versions) {
			delete(d.lines, l)
		} else {
			lt.versions = lt.versions[lt.flushedVer:]
			lt.flushedVer = 0
		}
	}
	d.mu.Unlock()
}

// Persist is the common flush-then-fence sequence.
func (d *Device) Persist(off, n int64) {
	d.Flush(off, n)
	d.Fence()
}
