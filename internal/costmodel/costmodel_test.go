package costmodel

import (
	"sync"
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

// TestSpinApproximatesTarget is the gate on the busy-wait's calibration:
// the fastest of five spins (preemption only adds time) burns what it was
// asked to within half either way. A rate floored at one iteration a
// nanosecond burned 2.9x on a host whose loop ran at 0.33. A host loaded
// enough to slow every probe of one calibration, or every one of five
// spins, gets two more rounds, each on a fresh calibration; a floor or a
// mistimed loop misses all three.
func TestSpinApproximatesTarget(t *testing.T) {
	const target = 2 * time.Millisecond
	best := time.Hour
	for round := 0; round < 3; round++ {
		if round > 0 {
			calibrate()
		}
		best = time.Hour
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			Spin(target.Nanoseconds())
			best = min(best, time.Since(start))
		}
		t.Logf("round %d: Spin(%v) fastest of 5 %v, calibrated %.3f iterations/ns",
			round, target, best, float64(spinsPerNSx65536.Load())/65536)
		if best >= target/2 && best <= target*3/2 {
			return
		}
	}
	t.Fatalf("Spin(%v) took %v, want within [%v, %v]", target, best, target/2, target*3/2)
}

// TestSpinRateKeepsASlowProbe pins the calibration arithmetic without a
// clock: a loop slower than one iteration a nanosecond keeps its rate, and
// only a probe the clock could not time is bounded.
func TestSpinRateKeepsASlowProbe(t *testing.T) {
	const probe = 1 << 16
	for _, tc := range []struct {
		name      string
		el, wantX int64
	}{
		{"0.35 iterations/ns", 186_000, probe << 16 / 186_000},
		{"one iteration/ns", probe, 1 << 16},
		{"zero probe", 0, maxSpinsPerNS << 16},
		{"absurdly fast probe", 1, maxSpinsPerNS << 16},
		{"absurdly slow probe", 1 << 40, 1},
	} {
		if got := spinRate(probe, tc.el); got != tc.wantX {
			t.Errorf("%s: spinRate(%d, %d) = %d, want %d", tc.name, probe, tc.el, got, tc.wantX)
		}
	}
}

// TestConcurrentSpin charges from several goroutines at once, as every
// multi-thread workload does; under -race it fails if the busy-wait
// shares memory between spinners.
func TestConcurrentSpin(t *testing.T) {
	m := &Model{FenceNS: 5000, FlushNS: 100}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				Spin(5000)
				m.Fence()
				m.Flush(8)
			}
		}()
	}
	wg.Wait()
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
