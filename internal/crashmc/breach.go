package crashmc

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry/span"
)

// LineChoice fixes one dirty cache line's crash outcome: persist the
// first K of its unpersisted store versions. Lines absent from a Keep
// set persist nothing.
type LineChoice struct {
	Off int64 `json:"off"`
	K   int   `json:"k"`
}

// Crash pins where and how a run was cut.
type Crash struct {
	// Kind is "point" for an enumerated image (observation point Ordinal
	// with exactly the Keep lines persisted), or the loop driver's seeded
	// kill: "fence" (the Nth observed fence), "killpoint" (a named
	// whitebox site's Nth hit), "checkpoint" (after an op completed),
	// "recovery" (a fence crash whose first repair mount was then killed
	// at the end of recovery pass Ordinal), or "soak" (no crash: the live
	// namespace diverged).
	Kind string `json:"kind"`
	// Site is the killpoint site name (killpoint/recovery kinds).
	Site string `json:"site,omitempty"`
	// Ordinal is the point ordinal, fence count, killpoint hit, or
	// recovery pass (1-based).
	Ordinal int `json:"ordinal"`
	// OpIndex is the index of the op in flight (or just completed).
	OpIndex int `json:"op_index"`
	// Policy names the line persistence policy a seeded kill's image
	// used: drop-all, one-alone, all-but-one, or random.
	Policy string `json:"policy,omitempty"`
	// Keep is an enumerated image's shrunk persisted-line assignment.
	Keep []LineChoice `json:"keep,omitempty"`
}

func (c Crash) String() string {
	if c.Kind == "point" {
		return fmt.Sprintf("point#%d op=%d keep=%d", c.Ordinal, c.OpIndex, len(c.Keep))
	}
	s := c.Kind
	if c.Site != "" {
		s += ":" + c.Site
	}
	return fmt.Sprintf("%s#%d op=%d policy=%s", s, c.Ordinal, c.OpIndex, c.Policy)
}

const breachTool = "arckcrash"

// Breach is one invariant violation, serialized as a replayable
// artifact: the row's identity, the op log, and the crash descriptor
// reproduce the crash image byte-for-byte without the original campaign
// (see Replay). An enumerated breach is shrunk — Ops is the minimal
// schedule, Crash.Keep the minimal persisted-line set; a looped one
// carries the iteration seed that regenerates its workload, kill and
// image, with Ops as the op log up to the crash.
type Breach struct {
	Tool       string `json:"tool"` // "arckcrash"
	Config     string `json:"config"`
	System     string `json:"system"`
	Bugs       uint32 `json:"bugs"`
	Interleave string `json:"interleave,omitempty"`
	Faults     string `json:"faults"`
	Tenants    int    `json:"tenants"`
	Seed       int64  `json:"seed"`
	Iter       int    `json:"iter"`
	IterSeed   int64  `json:"iter_seed"`
	OpsPerIter int    `json:"ops_per_iter"`
	Warmup     []Op   `json:"warmup"`
	Ops        []Op   `json:"ops"`
	Crash      Crash  `json:"crash"`
	Invariant  string `json:"invariant"`
	Detail     string `json:"detail"`
	// Flight is the arcktrace span history at the moment the breach was
	// recorded: every op of the run (the rig traces at sample=1),
	// including the operation in flight at the crash — whose events show
	// the exact persist schedule (flushes, skipped fences) that admitted
	// the bad crash state.
	Flight *span.FlightRecord `json:"flight,omitempty"`
	// Artifact is the path the breach was written to (set by Run).
	Artifact string `json:"-"`
}

func (b *Breach) String() string {
	return fmt.Sprintf("%s [bugs=%#x] iter %d (seed %d) %s: %s: %s",
		b.Config, b.Bugs, b.Iter, b.IterSeed, b.Crash, b.Invariant, b.Detail)
}

// LoadBreach reads a breach artifact written by Run.
func LoadBreach(path string) (*Breach, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Breach
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("crashmc: parsing breach artifact %s: %v", path, err)
	}
	if b.Tool != breachTool {
		return nil, fmt.Errorf("crashmc: %s is not an arckcrash breach artifact (tool=%q)", path, b.Tool)
	}
	return &b, nil
}

// ReplayOutcome reports what a replayed breach produced.
type ReplayOutcome struct {
	// Reproduced is true when the replay re-found the artifact's
	// invariant at the artifact's crash descriptor.
	Reproduced bool
	// Breaches are every violation the replay found. An enumerated
	// replay whose schedule never arrives at the recorded point — which
	// is what happens when the underlying ordering has been fixed and the
	// extra fence shifts the persist schedule — finds none.
	Breaches []*Breach
}

// Replay re-runs a breach deterministically from the artifact alone: an
// enumerated breach replays its schedule and checks the recorded image
// at the recorded observation point; a looped one re-runs its iteration
// from the seed — same workload, same fault plan, same kill, same image.
func Replay(b *Breach) (*ReplayOutcome, error) {
	faults, err := pmem.ParseFaultModes(b.Faults)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Name:        b.Config,
		System:      b.System,
		Bugs:        libfs.Bugs(b.Bugs),
		Interleave:  b.Interleave,
		Faults:      faults,
		Tenants:     b.Tenants,
		Warmup:      b.Warmup,
		Seed:        b.Seed,
		OpsPerIter:  b.OpsPerIter,
		NoArtifacts: true,
	}
	out := &ReplayOutcome{}
	if b.Crash.Kind == "point" {
		cfg.Ops = b.Ops
		cfg.fill()
		res, err := enumerate(cfg, b)
		if err != nil {
			return nil, err
		}
		out.Breaches = res.Breaches
	} else {
		cfg.fill()
		ir, err := runIteration(&cfg, b.Iter, b.IterSeed)
		if err != nil {
			return nil, err
		}
		out.Breaches = ir.breaches
	}
	for _, rb := range out.Breaches {
		if rb.Invariant == b.Invariant && reflect.DeepEqual(rb.Crash, b.Crash) {
			out.Reproduced = true
		}
	}
	return out, nil
}
