package costmodel

import (
	"testing"
	"time"
)

func TestNilModelChargesNothing(t *testing.T) {
	var m *Model
	start := time.Now()
	for i := 0; i < 1000; i++ {
		m.Syscall()
		m.Flush(16)
		m.Fence()
		m.PMWrite(4096)
		m.PMRead(4096)
		m.VerifyDentries(100)
		m.VerifyPages(10)
		m.Map()
		m.Unmap()
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("nil model burned %v", el)
	}
}

func TestZeroModelChargesNothing(t *testing.T) {
	start := time.Now()
	for i := 0; i < 1000; i++ {
		Zero.Syscall()
		Zero.Fence()
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("zero model burned %v", el)
	}
}

func TestSpinApproximatesTarget(t *testing.T) {
	// Spin should take at least ~half the requested time and not be
	// wildly above it (scheduling noise allowed).
	const target = 2 * time.Millisecond
	best := time.Hour
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		Spin(target.Nanoseconds())
		if el := time.Since(start); el < best {
			best = el
		}
	}
	if best < target/4 {
		t.Fatalf("Spin(%v) returned after %v", target, best)
	}
	if best > target*20 {
		t.Fatalf("Spin(%v) took %v", target, best)
	}
}

func TestDefaultModelOrdering(t *testing.T) {
	m := Default()
	if m.SyscallNS <= m.FenceNS {
		t.Fatal("a syscall must cost more than a fence")
	}
	if m.FlushNS <= 0 || m.VerifyDentryNS <= 0 || m.MapNS <= 0 {
		t.Fatal("default model has zero core costs")
	}
}

// TestChargesScaleWithCount compares the fastest of several interleaved
// trials of each call: preemption only ever adds host time, so a minimum
// is the charge itself.
func TestChargesScaleWithCount(t *testing.T) {
	m := &Model{FlushNS: 200_000} // 0.2ms per line: measurable
	timed := func(n int) time.Duration {
		start := time.Now()
		m.Flush(n)
		return time.Since(start)
	}
	one, ten := timed(1), timed(10)
	for i := 0; i < 4; i++ {
		one, ten = min(one, timed(1)), min(ten, timed(10))
	}
	if ten < one*3 {
		t.Fatalf("Flush(10)=%v not ≫ Flush(1)=%v", ten, one)
	}
}
