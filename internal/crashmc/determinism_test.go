package crashmc

import (
	"hash/maphash"
	"reflect"
	"testing"

	"arckfs/internal/pmem"
)

var digestSeed = maphash.MakeSeed()

// runDataPlane boots the campaign's mixed metadata+data schedule, drives
// it through the rig and returns what the run admits: the set of crash
// images (by digest) over every fence, and the final durable image's
// digest. Its own fence observer sees every fence — kernel-protocol ones
// included, unlike the drivers — and enumerates the first few dirty lines
// through every keep-subset; the truncation is deterministic, so it cuts
// every run identically and cannot mask a divergence by itself.
func runDataPlane(t *testing.T) (states map[uint64]bool, final uint64) {
	cfg := rowConfig(t, "mixed-ops/arckfs+")
	cfg.fill()
	r, err := newRig(&cfg, cfg.Seed, func() {})
	if err != nil {
		t.Fatal(err)
	}
	r.ops = cfg.Ops
	states = map[uint64]bool{}
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
			states[maphash.Bytes(digestSeed, r.dev.CrashImage(pmem.CrashKeepLines(keep...)))] = true
		}
	})
	if err := r.run(func() bool { return false }); err != nil {
		t.Fatal(err)
	}
	r.dev.SetFenceObserver(nil)
	return states, maphash.Bytes(digestSeed, r.dev.CrashImage(pmem.CrashDropAll))
}

// TestCrashStateEnumerationDeterministic pins the property every recorded
// seed and the campaign golden stand on: replaying the same schedule
// twice yields the same crash-state set and final image. The enumeration
// samples a truncated prefix of the dirty-line list at every fence, so
// any map-iteration order leaking into DirtyLines, verification results,
// or release order shows up here as a run-to-run diff.
func TestCrashStateEnumerationDeterministic(t *testing.T) {
	sa, fa := runDataPlane(t)
	sb, fb := runDataPlane(t)
	if fa != fb || !reflect.DeepEqual(sa, sb) {
		t.Errorf("identical runs differ: %d crash states ending on image %x, then %d ending on %x", len(sa), fa, len(sb), fb)
	}
}
