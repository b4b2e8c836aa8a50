package pmem

import (
	"cmp"
	"math/rand"
	"slices"

	"arckfs/internal/costmodel"
)

// CrashPolicy decides, for each cache line with unpersisted store history,
// how many leading versions additionally reach the persistence domain at a
// simulated power failure. It receives the line's byte offset and the
// number of unpersisted versions, and returns a value in [0, versions].
//
// The per-line prefix rule encodes that stores to a single cache line are
// ordered (a later store can never persist without the earlier ones),
// while different lines are entirely unordered absent a fence.
//
// Batched persists (see Batch) need no special handling here, and that is
// deliberate: a line whose flush is queued in a write-combining Batch but
// not yet written back, a line whose clwb was issued but not fenced, and
// a line written with non-temporal stores before its trailing fence are
// all in the same crash state — dirty, reorderable against every other
// line, free to persist any prefix of their store history. Only a fence
// (Batch.Barrier) removes lines from this enumeration, which is why the
// batcher preserves exactly the fence placement of the unbatched code.
type CrashPolicy func(lineOff int64, versions int) int

// CrashDropAll persists nothing beyond what was fenced — the most
// destructive crash.
func CrashDropAll(int64, int) int { return 0 }

// CrashPersistAll persists every outstanding store — the most permissive
// crash (equivalent to a clean shutdown of the volatile image).
func CrashPersistAll(_ int64, versions int) int { return versions }

// CrashRandom returns a policy choosing a uniformly random prefix per
// line, deterministically from seed.
func CrashRandom(seed int64) CrashPolicy {
	rng := rand.New(rand.NewSource(seed))
	return func(_ int64, versions int) int {
		return rng.Intn(versions + 1)
	}
}

// CrashKeepLines returns a policy that fully persists exactly the lines
// whose offsets are listed and drops all others — the adversarial policy
// used to manifest ordering bugs deterministically.
func CrashKeepLines(lineOffs ...int64) CrashPolicy {
	keep := make(map[int64]bool, len(lineOffs))
	for _, o := range lineOffs {
		keep[o/LineSize*LineSize] = true
	}
	return func(lineOff int64, versions int) int {
		if keep[lineOff] {
			return versions
		}
		return 0
	}
}

// CrashImage materializes the post-crash durable image under policy.
// Tracking must be enabled. The device itself is not modified, so a test
// can derive many crash states from one execution.
func (d *Device) CrashImage(policy CrashPolicy) []byte {
	if !d.tracking.Load() {
		panic("pmem: CrashImage requires tracking")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	img := make([]byte, len(d.persistent))
	copy(img, d.persistent)
	// Visit lines in address order so stateful policies (CrashRandom) are
	// deterministic across runs.
	order := make([]int64, 0, len(d.lines))
	for l := range d.lines {
		order = append(order, l)
	}
	slices.Sort(order)
	persisted := make([]int64, 0, len(order))
	for _, l := range order {
		lt := d.lines[l]
		k := policy(l*LineSize, len(lt.versions))
		if k < 0 {
			k = 0
		}
		if k > len(lt.versions) {
			k = len(lt.versions)
		}
		if k > 0 {
			copy(img[l*LineSize:], lt.versions[k-1])
			persisted = append(persisted, l*LineSize)
		}
	}
	d.applyTear(img, persisted)
	return img
}

// LineState describes one cache line with unpersisted store history: a
// crash may persist any prefix of its Versions tracked store batches (0
// keeps the line's last fenced content). The per-line state spaces are
// independent, so the crash-state space at an instant is the product of
// (Versions+1) over all dirty lines — the quantity a bounded model
// checker enumerates or samples.
type LineState struct {
	// Off is the line-aligned device offset.
	Off int64
	// Versions is the number of unpersisted store batches recorded for
	// the line since its content was last fenced.
	Versions int
}

// DirtyLineStates returns the state of every cache line with unpersisted
// store history, sorted by offset. It is the enumeration-ready
// counterpart of DirtyLines, for crash-state model checking.
func (d *Device) DirtyLineStates() []LineState {
	d.mu.Lock()
	defer d.mu.Unlock()
	states := make([]LineState, 0, len(d.lines))
	for l, lt := range d.lines {
		states = append(states, LineState{Off: l * LineSize, Versions: len(lt.versions)})
	}
	slices.SortFunc(states, func(a, b LineState) int { return cmp.Compare(a.Off, b.Off) })
	return states
}

// DirtyLines returns the offsets of all cache lines with unpersisted
// store history, sorted ascending. Useful for exhaustive small-scope
// crash enumeration in tests: enumerators routinely truncate this list,
// so its order must not depend on Go map iteration or the sampled
// crash-state set varies run to run.
func (d *Device) DirtyLines() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	offs := make([]int64, 0, len(d.lines))
	for l := range d.lines {
		offs = append(offs, l*LineSize)
	}
	slices.Sort(offs)
	return offs
}

// Restore creates a fresh untracked device whose volatile image is img —
// the "reboot" following a crash. The new device shares the cost model.
func Restore(img []byte, cost *costmodel.Model) *Device {
	d := New(int64(len(img)), cost)
	copy(d.buf, img)
	return d
}
