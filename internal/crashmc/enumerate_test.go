package crashmc

import (
	"reflect"
	"testing"

	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// TestSection42CounterexampleShape pins what the §4.2 counterexample
// looks like after shrinking: a single create suffices, and the minimal
// persisted-line set is non-empty (the commit marker's line must
// persist for the body to be torn under it).
func TestSection42CounterexampleShape(t *testing.T) {
	res := rowResult(t, "create-commit/arckfs")
	if len(res.Breaches) != 1 {
		t.Fatalf("want exactly one counterexample, got %d", len(res.Breaches))
	}
	ce := res.Breaches[0]
	if ce.Invariant != InvNoTornCommit {
		t.Fatalf("want %s, got %s", InvNoTornCommit, ce.Invariant)
	}
	if len(ce.Ops) != 1 || ce.Ops[0].Kind != OpCreate {
		t.Fatalf("shrunk schedule should be the single create, got %v", ce.Ops)
	}
	if len(ce.Crash.Keep) == 0 {
		t.Fatal("a torn commit needs at least the marker line persisted; Keep is empty")
	}
}

// TestReserveHoleCounterexampleShape pins the reserveDentry hole's
// shape: the violation is the loss of the verified entry appended after
// the dead slot, and the minimal counterexample persists nothing — the
// crash state that loses the file is exactly the fenced-durable image,
// because the record length was never flushed at all.
func TestReserveHoleCounterexampleShape(t *testing.T) {
	res := rowResult(t, "reserve-scan/arckfs")
	if !res.Violated(InvVerifiedDurable) {
		t.Fatalf("reserve hole not rediscovered: %v", res.Breaches)
	}
	for _, ce := range res.Breaches {
		if ce.Invariant != InvVerifiedDurable {
			continue
		}
		if len(ce.Crash.Keep) != 0 {
			t.Errorf("minimal counterexample should persist nothing (the hole is an unflushed line), got %v", ce.Crash.Keep)
		}
		// The dead slot requires the duplicate create; shrinking must not
		// remove it.
		dup := false
		for _, op := range ce.Ops {
			if op.WantErr {
				dup = true
			}
		}
		if !dup {
			t.Errorf("shrunk schedule lost the duplicate create that plants the dead slot: %v", ce.Ops)
		}
	}
}

// TestRunDeterminism: same config, same seed — identical result shape
// and identical counterexamples, down to points, line offsets, and
// prefix choices. The CI smoke job and artifact replay rely on this.
func TestRunDeterminism(t *testing.T) {
	a := rowResult(t, "create-commit/arckfs")
	b, err := Run(rowConfig(t, "create-commit/arckfs"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Points != b.Points || a.Images != b.Images {
		t.Fatalf("nondeterministic exploration: %d/%d points, %d/%d images",
			a.Points, b.Points, a.Images, b.Images)
	}
	// The flight records carry wall-clock timings, so they are compared
	// structurally; everything else must match byte for byte.
	if len(a.Breaches) != len(b.Breaches) {
		t.Fatalf("breach count differs: %d vs %d", len(a.Breaches), len(b.Breaches))
	}
	for i := range a.Breaches {
		ba, bb := *a.Breaches[i], *b.Breaches[i]
		assertSameFlightShape(t, ba.Flight, bb.Flight)
		ba.Flight, bb.Flight = nil, nil
		ba.Artifact, bb.Artifact = "", ""
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("nondeterministic counterexamples:\n%v\nvs\n%v", ba, bb)
		}
	}
}

// assertSameFlightShape checks the timing-independent content of two
// flight records: same reason, same span sequence (op, app, outcome),
// and identical event kinds and deterministic payloads. Durations and
// event timestamps legitimately differ run to run.
func assertSameFlightShape(t *testing.T, a, b *span.FlightRecord) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("missing flight record: %v vs %v", a, b)
	}
	if a.Reason != b.Reason || len(a.Spans) != len(b.Spans) {
		t.Fatalf("flight shape differs: %q/%d spans vs %q/%d spans",
			a.Reason, len(a.Spans), b.Reason, len(b.Spans))
	}
	for i := range a.Spans {
		sa, sb := a.Spans[i], b.Spans[i]
		if sa.Op != sb.Op || sa.App != sb.App || sa.Err != sb.Err || len(sa.Events) != len(sb.Events) {
			t.Fatalf("flight span %d differs: %v vs %v", i, sa, sb)
		}
		for j := range sa.Events {
			ea, eb := sa.Events[j], sb.Events[j]
			if ea.Kind != eb.Kind || ea.A != eb.A {
				t.Fatalf("flight span %d event %d differs: %v vs %v", i, j, ea, eb)
			}
			// B is a duration for crossings; it is only pinned for the
			// deterministic kinds (flush line counts, ntstore sizes...).
			timed := ea.Kind == telemetry.SpanEvCrossing || ea.Kind == telemetry.SpanEvReleaseBatch ||
				ea.Kind == telemetry.SpanEvAcquireBatch
			if !timed && ea.B != eb.B {
				t.Fatalf("flight span %d event %d payload differs: %v vs %v", i, j, ea, eb)
			}
		}
	}
}

// TestCheckImageModelFree exercises the arckfsck -deep entry: a clean
// post-release image passes the model-free invariants.
func TestCheckImageModelFree(t *testing.T) {
	cfg := rowConfig(t, "create-commit/arckfs+")
	cfg.fill()
	r, err := newRig(&cfg, cfg.Seed, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.runOp(Op{Kind: OpRelease}); err != nil {
		t.Fatal(err)
	}
	img := r.dev.CrashImage(pmem.CrashPersistAll)
	if vs := CheckImage(img, nil); len(vs) != 0 {
		t.Fatalf("clean image fails model-free check: %v", vs)
	}
}

// TestCompactionConfigCompacts guards the compact-churn configuration
// against silently testing nothing: its warmup stops one dead slot short
// of libfs.CompactMinDeadSlots, so the tracked release must run exactly
// one compaction, and the checker must have enumerated crash images at
// both of its fences — a page of streamed lines (sampled) and the single
// head line (exhaustive) — on top of the per-op points.
func TestCompactionConfigCompacts(t *testing.T) {
	res := rowResult(t, "compact-churn/arckfs+")
	if !res.OK() {
		t.Fatalf("compaction admitted a bad crash state: %v", res.Breaches[0])
	}
	if res.Compactions != 1 {
		t.Fatalf("tracked ops ran %d compactions, want 1", res.Compactions)
	}
	plain := rowConfig(t, "compact-churn/arckfs+")
	plain.Ops = plain.Ops[:len(plain.Ops)-1] // the same ops without the release
	base, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	// The release adds its post-op checkpoint and the two compaction fences.
	if got := res.Points - base.Points; got != 3 {
		t.Fatalf("the compacting release added %d observation points, want 3", got)
	}
	if res.Sampled <= base.Sampled || res.Images < base.Images+100 {
		t.Fatalf("compaction fences barely enumerated: %d images (%d without), sampled %d (%d without)",
			res.Images, base.Images, res.Sampled, base.Sampled)
	}
}
