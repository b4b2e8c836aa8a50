package crashmc

import (
	"encoding/binary"
	"hash/maphash"
	"reflect"
	"testing"

	"arckfs/internal/pmem"
)

var digestSeed = maphash.MakeSeed()

// runDataPlane boots the campaign's mixed metadata+data schedule, drives
// it through the rig and returns what the run admits: the set of crash
// states over every fence, each digested with its fence's dirty-line
// offsets, and the final durable image's digest. Its own fence observer
// sees every fence — kernel-protocol ones included, unlike the drivers —
// and enumerates every dirty line the way the enumerate driver does:
// exhaustively within pointBudget, otherwise the corners and seeded
// samples.
func runDataPlane(t *testing.T) (states map[uint64]bool, final uint64) {
	cfg := rowConfig(t, "mixed-ops/arckfs+")
	cfg.fill()
	r, err := newRig(&cfg, cfg.Seed, func() {})
	if err != nil {
		t.Fatal(err)
	}
	r.ops = cfg.Ops
	states = map[uint64]bool{}
	fences := int64(0)
	r.dev.SetFenceObserver(func() {
		fences++
		// An image differs from the fence's durable one only on the dirty
		// lines, so it is digested as the durable one's digest plus those
		// lines and their offsets: hashing every whole image would double
		// the test's time.
		lines := r.dev.DirtyLineStates()
		durable := maphash.Bytes(digestSeed, r.dev.CrashImage(pmem.CrashDropAll))
		images, _ := r.dev.CrashImages(lines, pmem.CrashDropAll, pointBudget, fences)
		for _, img := range images {
			var h maphash.Hash
			h.SetSeed(digestSeed)
			h.Write(binary.LittleEndian.AppendUint64(nil, durable))
			for _, s := range lines {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(s.Off)))
				h.Write(img[s.Off : s.Off+pmem.LineSize])
			}
			states[h.Sum64()] = true
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
// covers every dirty line at every fence, so any map-iteration order
// leaking into DirtyLineStates, verification results, or release order
// shows up here as a run-to-run diff.
func TestCrashStateEnumerationDeterministic(t *testing.T) {
	sa, fa := runDataPlane(t)
	sb, fb := runDataPlane(t)
	if fa != fb || !reflect.DeepEqual(sa, sb) {
		t.Errorf("identical runs differ: %d crash states ending on image %x, then %d ending on %x", len(sa), fa, len(sb), fb)
	}
}
