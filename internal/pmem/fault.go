package pmem

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// Device lie modes.
//
// The Linux-PM issue study (Gatla et al.) found that a large fraction of
// real persistent-memory bugs involve hardware that misbehaves rather
// than software that orders its persists wrongly: a write-back that is
// silently dropped on its way to the persistence domain, or a cache line
// that tears mid-write at a power failure. Neither state is reachable
// under the honest persistency model pmem simulates by default — a
// fenced line is durable, and a line persists only whole-snapshot
// prefixes of its store history — so crash-state enumeration over a
// truthful device can never produce them.
//
// A FaultPlan makes the device lie, seeded and deterministic:
//
//   - FaultDropFlush: a clwb (Device.Flush) or a streaming store's
//     write-combining drain (WriteNT/ZeroNT) reports success, but the
//     selected line's write-back never initiates. The software proceeds
//     believing the line durable; at a crash the line may still persist
//     nothing. Counted in Stats.LiedFlushes.
//   - FaultDropFence: a Fence reports success, but the epoch's queued
//     write-backs are dropped — every flushed-but-unpersisted line
//     reverts to dirty, its clwb gone. Counted in Stats.LiedFences.
//   - FaultTearLine: at crash-image materialization, one persisting line
//     tears at a chosen byte split — the leading split bytes carry the
//     new content, the rest the line's previous durable content. This
//     breaks the whole-snapshot prefix rule: a commit marker in the
//     middle of a line can persist while name bytes after it in the
//     same line do not. Counted in Stats.TornLines.
//
// Lies change nothing about the volatile image (reads are unaffected),
// only which crash states become reachable — which is exactly what makes
// them invisible to benchmarks and visible to crashmc and arckcrash.
type FaultMode uint32

const (
	// FaultDropFlush silently drops selected line write-backs.
	FaultDropFlush FaultMode = 1 << iota
	// FaultDropFence makes selected fences lie: the epoch's queued
	// write-backs are dropped instead of persisted.
	FaultDropFence
	// FaultTearLine tears one persisting line per crash image at a
	// seeded byte split.
	FaultTearLine

	// FaultsNone is the honest device.
	FaultsNone FaultMode = 0
)

// Has reports whether mode m includes f.
func (m FaultMode) Has(f FaultMode) bool { return m&f != 0 }

var faultModeNames = []struct {
	mode FaultMode
	name string
}{
	{FaultDropFlush, "drop-flush"},
	{FaultDropFence, "drop-fence"},
	{FaultTearLine, "torn-line"},
}

func (m FaultMode) String() string {
	if m == FaultsNone {
		return "none"
	}
	var parts []string
	for _, e := range faultModeNames {
		if m.Has(e.mode) {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, ",")
}

// ParseFaultModes parses a comma-separated fault-mode list: "none",
// "drop-flush", "drop-fence", "torn-line", or any comma mix.
func ParseFaultModes(s string) (FaultMode, error) {
	var m FaultMode
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch part {
		case "", "none":
			continue
		case "drop-flush":
			m |= FaultDropFlush
		case "drop-fence":
			m |= FaultDropFence
		case "torn-line":
			m |= FaultTearLine
		default:
			return 0, fmt.Errorf("pmem: unknown fault mode %q (want none, drop-flush, drop-fence, torn-line)", part)
		}
	}
	return m, nil
}

// FaultPlan is a seeded device-lie schedule. One plan serves one device;
// its random stream advances once per candidate event (flush line, fence,
// crash-image materialization), so a single-threaded run replays
// byte-identically from (Modes, Seed) alone. Multi-threaded benchmark
// use is safe (the stream is mutex-guarded) but not deterministic —
// determinism is a property the crash tools need, and they are
// single-threaded by construction.
type FaultPlan struct {
	// Modes selects which lies the plan may tell.
	Modes FaultMode
	// Seed drives every lie decision.
	Seed int64
	// FlushEvery drops roughly one in N candidate line write-backs
	// (default 8). 1 drops every candidate.
	FlushEvery int
	// FenceEvery makes roughly one in N fences lie (default 16). 1 makes
	// every fence lie.
	FenceEvery int
	// Filter, when non-nil, restricts drop-flush candidates to lines
	// whose line-aligned offset it accepts. Tests use it to aim a lie at
	// one structure (e.g. a dentry commit marker) deterministically.
	Filter func(lineOff int64) bool

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFaultPlan builds a plan with the default rates.
func NewFaultPlan(modes FaultMode, seed int64) *FaultPlan {
	return &FaultPlan{Modes: modes, Seed: seed, FlushEvery: 8, FenceEvery: 16,
		rng: rand.New(rand.NewSource(seed))}
}

// roll draws a 1-in-n decision from the plan's stream.
func (p *FaultPlan) roll(n int) bool {
	if n <= 1 {
		return true
	}
	p.mu.Lock()
	v := p.rng.Intn(n)
	p.mu.Unlock()
	return v == 0
}

// dropFlush decides whether the write-back of the line at lineOff is
// silently dropped.
func (p *FaultPlan) dropFlush(lineOff int64) bool {
	if p == nil || !p.Modes.Has(FaultDropFlush) {
		return false
	}
	if p.Filter != nil && !p.Filter(lineOff) {
		return false
	}
	return p.roll(p.FlushEvery)
}

// dropFence decides whether this fence lies.
func (p *FaultPlan) dropFence() bool {
	if p == nil || !p.Modes.Has(FaultDropFence) {
		return false
	}
	return p.roll(p.FenceEvery)
}

// tearChoice picks which of n candidate lines tears and at which byte
// split in [1, LineSize-1]. Called once per crash-image materialization
// when FaultTearLine is set and candidates exist.
func (p *FaultPlan) tearChoice(n int) (idx, split int) {
	p.mu.Lock()
	idx = p.rng.Intn(n)
	split = 1 + p.rng.Intn(LineSize-1)
	p.mu.Unlock()
	return idx, split
}

// SetFaultPlan attaches a lie plan to the device (nil detaches). Like
// the observer it must be set while the device is quiescent.
func (d *Device) SetFaultPlan(p *FaultPlan) { d.fault = p }

// Fault returns the attached lie plan (possibly nil).
func (d *Device) Fault() *FaultPlan { return d.fault }

// applyTear implements FaultTearLine on a materialized crash image:
// among the dirty lines that persisted new content (policy chose k > 0),
// one seeded line keeps only its leading split bytes; the tail of the
// line reverts to the last fenced content. Caller holds d.mu.
func (d *Device) applyTear(img []byte, persisted []int64) {
	if d.fault == nil || !d.fault.Modes.Has(FaultTearLine) || len(persisted) == 0 {
		return
	}
	slices.Sort(persisted)
	idx, split := d.fault.tearChoice(len(persisted))
	off := persisted[idx]
	copy(img[off+int64(split):off+LineSize], d.persistent[off+int64(split):off+LineSize])
	d.Stats.TornLines.Add(1)
}
