// Package costmodel injects calibrated latencies into simulated hardware
// and kernel operations.
//
// The reproduction runs on DRAM inside a single process, while the paper's
// experiments run on Intel Optane persistent memory with LibFSes issuing
// real system calls. To preserve the *relative* performance shapes the
// paper reports (direct userspace access vs. syscall-gated kernel file
// systems, flush/fence overhead of crash consistency, per-operation
// verification cost), each simulated primitive charges a configurable
// number of nanoseconds using a calibrated busy-wait.
//
// A nil *Model, or a Model with a zero field, charges nothing for that
// primitive, so unit tests run at full speed.
package costmodel

import (
	"sync/atomic"
	"time"
)

// Model holds per-primitive latencies in nanoseconds. The zero value
// charges nothing.
type Model struct {
	// SyscallNS is charged for every crossing into the simulated kernel
	// (acquire, release, page grants, kernel file system operations).
	SyscallNS int64
	// FlushNS is charged per cache-line write-back (clwb).
	FlushNS int64
	// FenceNS is charged per persist barrier (sfence).
	FenceNS int64
	// PMWriteNS is charged per cache line stored to persistent memory,
	// modeling Optane's higher-than-DRAM write latency.
	PMWriteNS int64
	// PMReadNS is charged per cache line loaded from persistent memory.
	// Optane reads are closer to DRAM, so this is typically small or zero.
	PMReadNS int64
	// NTStoreNS is charged per cache line written with non-temporal
	// (movnt-style) streaming stores. A streaming store replaces a
	// store + clwb pair, so it is priced above a plain store but below
	// PMWriteNS+FlushNS.
	NTStoreNS int64
	// VerifyDentryNS is charged by the integrity verifier per directory
	// entry inspected.
	VerifyDentryNS int64
	// VerifyPageNS is charged by the integrity verifier per file-system
	// page walked (block maps, log pages).
	VerifyPageNS int64
	// MapNS / UnmapNS are charged when the kernel maps or unmaps an
	// inode's core state into a LibFS (page-table manipulation).
	MapNS   int64
	UnmapNS int64
	// NUMARemoteNS priced a page stolen across NUMA node groups. No
	// simulator site charges it any more; it remains because
	// benchmark/workload/run.go prices a counter with it.
	NUMARemoteNS int64
}

// Zero charges nothing anywhere; useful to name intent at call sites.
var Zero = &Model{}

// Default approximates the relative costs on the paper's testbed
// (Xeon Gold 6248R + Optane 100 series, Linux 5.13): a trap-and-VFS
// crossing costs on the order of a microsecond, clwb+sfence pairs cost
// on the order of a hundred nanoseconds, and verification costs tens of
// nanoseconds per entry.
func Default() *Model {
	return &Model{
		SyscallNS:      900,
		FlushNS:        70,
		FenceNS:        30,
		PMWriteNS:      60,
		PMReadNS:       0,
		NTStoreNS:      80,
		VerifyDentryNS: 40,
		VerifyPageNS:   120,
		MapNS:          400,
		UnmapNS:        300,
		NUMARemoteNS:   130,
	}
}

// spinsPerNSx65536 is the calibrated number of busy-wait loop iterations
// per nanosecond, stored as iterations<<16 to keep fractional precision.
var spinsPerNSx65536 atomic.Int64

func init() {
	calibrate()
}

// spinLoop runs n iterations of a chain of dependent multiplies held in a
// register. Each iteration costs the multiplier's latency, so the rate
// timed at init holds for the process; a loop of adds ran 1.1 to 2.5
// iterations a ns from one process to the next on a 2-vCPU VM. Concurrent
// spinners share no memory until the one store at the end, which keeps the
// compiler from dropping the loop.
//
//go:noinline
func spinLoop(n int64) {
	x := uint64(n) | 1 // odd, so the product never settles at zero
	for i := int64(0); i < n; i++ {
		x *= x
	}
	spinSink.Store(x)
}

var spinSink atomic.Uint64

// maxSpinsPerNS bounds the calibrated rate: one multiply waits at least a
// cycle, so a probe that reads faster than this (or reads no time at all)
// was not timed.
const maxSpinsPerNS = 16

// spinRate converts a probe of iters iterations that took el nanoseconds
// into the fixed-point rate Spin uses. It keeps the measured rate however
// slow the loop runs: a floor would make every Spin burn more than it
// charges.
func spinRate(iters, el int64) int64 {
	return min(max(iters<<16/max(el, 1), 1), maxSpinsPerNS<<16)
}

// calibrate times several probes and keeps the fastest: preemption only
// ever adds time to a probe.
func calibrate() {
	const probe = 1 << 16
	best := int64(1 << 62)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		spinLoop(probe)
		best = min(best, time.Since(start).Nanoseconds())
	}
	spinsPerNSx65536.Store(spinRate(probe, best))
}

// Spin busy-waits for approximately ns nanoseconds. It never sleeps, so it
// models on-CPU latency (a blocked hardware operation), not scheduling.
func Spin(ns int64) {
	if ns <= 0 {
		return
	}
	spinLoop(ns * spinsPerNSx65536.Load() >> 16)
}

// Syscall charges one kernel crossing.
func (m *Model) Syscall() {
	if m != nil {
		Spin(m.SyscallNS)
	}
}

// Flush charges n cache-line write-backs.
func (m *Model) Flush(n int) {
	if m != nil && n > 0 {
		Spin(m.FlushNS * int64(n))
	}
}

// Fence charges one persist barrier.
func (m *Model) Fence() {
	if m != nil {
		Spin(m.FenceNS)
	}
}

// PMWrite charges a store of n bytes, rounded up to cache lines.
func (m *Model) PMWrite(n int) {
	if m != nil && m.PMWriteNS > 0 && n > 0 {
		Spin(m.PMWriteNS * int64((n+63)/64))
	}
}

// NTStore charges n cache lines of non-temporal stores.
func (m *Model) NTStore(n int) {
	if m != nil && m.NTStoreNS > 0 && n > 0 {
		Spin(m.NTStoreNS * int64(n))
	}
}

// PMRead charges a load of n bytes, rounded up to cache lines.
func (m *Model) PMRead(n int) {
	if m != nil && m.PMReadNS > 0 && n > 0 {
		Spin(m.PMReadNS * int64((n+63)/64))
	}
}

// VerifyDentries charges verification of n directory entries.
func (m *Model) VerifyDentries(n int) {
	if m != nil && n > 0 {
		Spin(m.VerifyDentryNS * int64(n))
	}
}

// VerifyPages charges verification of n pages.
func (m *Model) VerifyPages(n int) {
	if m != nil && n > 0 {
		Spin(m.VerifyPageNS * int64(n))
	}
}

// Map charges mapping an inode's core state into a LibFS.
func (m *Model) Map() {
	if m != nil {
		Spin(m.MapNS)
	}
}

// Unmap charges unmapping an inode's core state from a LibFS.
func (m *Model) Unmap() {
	if m != nil {
		Spin(m.UnmapNS)
	}
}
