package pmem

import (
	"cmp"
	"fmt"
	"iter"
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

// Bounds of CrashImages' sampled enumeration.
const (
	// sampleN is the number of seeded random assignments checked at a
	// point whose crash-state space exceeds its budget, on top of the
	// corners.
	sampleN = 24
	// maxCornerLines bounds the per-line corners: past this many lines
	// only the first, middle and last line are kept alone and left out,
	// so a data epoch of thousands of lines costs a handful of images.
	maxCornerLines = 256
)

// CrashImages enumerates the crash images the device admits now over
// lines, a subset of DirtyLineStates: each assignment gives line i a
// persisted prefix of ks[i] in [0, lines[i].Versions], and every other
// dirty line persists what rest chooses. The second result reports
// whether the enumeration is exhaustive.
//
// A space of at most budget images, the product of (Versions+1) over
// lines, is enumerated exhaustively in mixed-radix order with line 0
// least significant. A larger one yields the adversarial corners —
// nothing, everything, then each line alone and each line missing —
// followed by sampleN assignments drawn from seed, skipping repeats; the
// corners are what manifest ordering bugs deterministically (a §4.2 torn
// commit is "marker line alone"). Past maxCornerLines lines the corners
// take only the first, middle and last line. A budget of 0 always takes
// the corners and samples.
//
// Each image is materialized only when the range reaches it, so breaking
// out stops the work. The yielded assignment is reused: copy it to keep
// it past the iteration step.
func (d *Device) CrashImages(lines []LineState, rest CrashPolicy, budget int, seed int64) (iter.Seq2[[]int, []byte], bool) {
	total := 1
	for _, s := range lines {
		total *= s.Versions + 1
		if total > budget {
			break
		}
	}
	exhaustive := total <= budget
	return func(yield func([]int, []byte) bool) {
		idx := make(map[int64]int, len(lines))
		for i, s := range lines {
			idx[s.Off] = i
		}
		ks := make([]int, len(lines))
		emit := func() bool {
			return yield(ks, d.CrashImage(func(off int64, versions int) int {
				if i, ok := idx[off]; ok {
					return ks[i]
				}
				return rest(off, versions)
			}))
		}
		if exhaustive {
			for {
				if !emit() {
					return
				}
				i := 0
				for ; i < len(ks); i++ {
					if ks[i]++; ks[i] <= lines[i].Versions {
						break
					}
					ks[i] = 0
				}
				if i == len(ks) {
					return
				}
			}
		}
		tried := map[string]bool{}
		// try assigns each line keep(i, its Versions) and yields the image
		// unless an earlier corner or sample had the same assignment.
		try := func(keep func(i, versions int) int) bool {
			for i, s := range lines {
				ks[i] = keep(i, s.Versions)
			}
			key := fmt.Sprint(ks)
			if tried[key] {
				return true
			}
			tried[key] = true
			return emit()
		}
		if !try(func(int, int) int { return 0 }) || !try(func(_, v int) int { return v }) {
			return
		}
		n := len(lines)
		for c := range lines {
			if n > maxCornerLines && c != 0 && c != n/2 && c != n-1 {
				continue
			}
			alone := func(i, v int) int {
				if i == c {
					return v
				}
				return 0
			}
			missing := func(i, v int) int { return v - alone(i, v) }
			if !try(alone) || !try(missing) {
				return
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for range sampleN {
			if !try(func(_, v int) int { return rng.Intn(v + 1) }) {
				return
			}
		}
	}, exhaustive
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
// store history, sorted ascending, so that nothing derived from it
// depends on Go map iteration order.
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
//
// Unlike New, Restore keeps the image on the Go heap. The crash checkers
// restore thousands of short-lived images; the heap hands each one warm,
// reused spans, where a fresh mapping per image would pay a page fault and
// the kernel's zeroing for every page it touches.
func Restore(img []byte, cost *costmodel.Model) *Device {
	buf := make([]byte, pageRound(int64(len(img))))
	copy(buf, img)
	return newDevice(buf, cost)
}
