package crashmc

import (
	"hash/maphash"
	"sync"
	"testing"

	"arckfs/internal/pmem"
)

// crashStates is what one run of the mixed-ops schedule admits: the set
// of crash images (by digest) over every fence, and the final durable
// image's digest.
type crashStates struct {
	states map[uint64]bool
	final  uint64
}

// dataPlaneRuns holds two independent runs per read discipline; the
// determinism and discipline-equivalence tests share them.
var dataPlaneRuns struct {
	once [2]sync.Once
	runs [2][2]crashStates
}

var digestSeed = maphash.MakeSeed()

// dataPlaneCrashStates returns run i (0 or 1) of the campaign's mixed
// metadata+data schedule under the given read discipline, booted and
// driven through the rig. Its own fence observer sees every fence —
// kernel-protocol ones included, unlike the drivers — and enumerates the
// first few dirty lines through every keep-subset; the truncation is
// deterministic, so it cuts both disciplines identically and cannot
// mask a divergence by itself.
func dataPlaneCrashStates(t *testing.T, serialData bool, i int) crashStates {
	t.Helper()
	d := 0
	if serialData {
		d = 1
	}
	dataPlaneRuns.once[d].Do(func() {
		for i := range dataPlaneRuns.runs[d] {
			dataPlaneRuns.runs[d][i] = runDataPlane(t, serialData)
		}
	})
	return dataPlaneRuns.runs[d][i]
}

func runDataPlane(t *testing.T, serialData bool) crashStates {
	cfg := rowConfig(t, "mixed-ops/arckfs+")
	cfg.SerialData = serialData
	cfg.fill()
	r, err := newRig(&cfg, cfg.Seed, func() {})
	if err != nil {
		t.Fatal(err)
	}
	r.ops = cfg.Ops
	out := crashStates{states: map[uint64]bool{}}
	const maxEnum = 6
	r.dev.SetFenceObserver(func() {
		dirty := r.dev.DirtyLines()
		n := len(dirty)
		if n > maxEnum {
			n = maxEnum
		}
		for mask := 0; mask < 1<<n; mask++ {
			var keep []int64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					keep = append(keep, dirty[i])
				}
			}
			out.states[maphash.Bytes(digestSeed, r.dev.CrashImage(pmem.CrashKeepLines(keep...)))] = true
		}
	})
	if err := r.run(func() bool { return false }); err != nil {
		t.Fatalf("serialData=%v: %v", serialData, err)
	}
	r.dev.SetFenceObserver(nil)
	out.final = maphash.Bytes(digestSeed, r.dev.CrashImage(pmem.CrashDropAll))
	return out
}

// TestSerialDataCrashStatesMatchLockFree pins the data-plane invariant
// the lock-free read paths rely on: the read discipline touches no write
// path, so the locked and lock-free configurations admit exactly the
// same crash-state set over an identical schedule and end on the same
// durable image. A divergence means a read path started mutating persist
// ordering — the regression this test exists to catch.
func TestSerialDataCrashStatesMatchLockFree(t *testing.T) {
	lockfree := dataPlaneCrashStates(t, false, 0)
	locked := dataPlaneCrashStates(t, true, 0)
	if lockfree.final != locked.final {
		t.Fatal("final durable images differ between lock-free and serial-data runs")
	}
	if len(lockfree.states) != len(locked.states) {
		t.Fatalf("crash-state count differs: lock-free %d, serial-data %d", len(lockfree.states), len(locked.states))
	}
	for k := range lockfree.states {
		if !locked.states[k] {
			t.Fatal("lock-free run admits a crash state the serial-data run does not")
		}
	}
}
