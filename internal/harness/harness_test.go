package harness

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"arckfs/internal/telemetry"
)

func TestRunCountsOps(t *testing.T) {
	var n atomic.Int64
	res := Run("fs", "w", 4, 100, func(tid, i int) error {
		n.Add(1)
		return nil
	})
	if res.Err != nil || res.Ops != 400 || n.Load() != 400 {
		t.Fatalf("res=%+v n=%d", res, n.Load())
	}
	if res.OpsPerSec() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunSurfacesErrors(t *testing.T) {
	boom := errors.New("boom")
	res := Run("fs", "w", 2, 50, func(tid, i int) error {
		if tid == 1 && i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(res.Err, boom) {
		t.Fatalf("err = %v", res.Err)
	}
}

// TestRunCountsCompletedOps checks that a worker aborting early only
// contributes the operations it actually finished — a partially failed
// run must not report the full nominal op count as throughput.
func TestRunCountsCompletedOps(t *testing.T) {
	boom := errors.New("boom")
	res := Run("fs", "w", 2, 100, func(tid, i int) error {
		if tid == 1 && i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(res.Err, boom) {
		t.Fatalf("err = %v", res.Err)
	}
	// Worker 0 completed 100 ops, worker 1 completed 10 before failing.
	if res.Ops != 110 {
		t.Fatalf("Ops = %d, want 110", res.Ops)
	}
}

func TestRunSampledLatency(t *testing.T) {
	res := Run("fs", "w", 3, 64, func(tid, i int) error { return nil })
	if res.Lat == nil {
		t.Fatal("no latency summary")
	}
	// Every worker samples ceil(64/8) = 8 ops.
	if res.Lat.Count != 3*8 {
		t.Fatalf("sampled %d ops, want %d", res.Lat.Count, 3*8)
	}
	if res.Lat.P50NS < 0 || res.Lat.MaxNS < res.Lat.P50NS {
		t.Fatalf("implausible summary %+v", res.Lat)
	}

	old := LatencySample
	LatencySample = 0
	defer func() { LatencySample = old }()
	if res := Run("fs", "w", 1, 16, func(tid, i int) error { return nil }); res.Lat != nil {
		t.Fatal("latency sampling disabled but summary present")
	}
}

func TestRunCountedDeltas(t *testing.T) {
	set := telemetry.NewSet()
	var c atomic.Int64
	set.Gauge("side.effects", c.Load)
	c.Add(100) // setup-phase counts must not leak into the delta
	res := RunCounted(set, "fs", "w", 2, 10, func(tid, i int) error {
		c.Add(1)
		return nil
	})
	if res.Err != nil || res.Ops != 20 {
		t.Fatalf("res = %+v", res)
	}
	if res.Counters["side.effects"] != 20 {
		t.Fatalf("delta = %v", res.Counters)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("Geomean = %v", g)
	}
	if g := Geomean([]float64{2, 0, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("Geomean ignoring zeros = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v", g)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"a", "longer"}}
	tbl.Add("x", "1")
	tbl.Add("yyyy", "22")
	out := tbl.Render()
	if !strings.Contains(out, "## T") || !strings.Contains(out, "yyyy") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("w")
	s.Add("a", 1, 100)
	s.Add("a", 2, 150)
	s.Add("b", 1, 200)
	s.Add("b", 2, 300)
	if rel := s.Relative("a", "b", 2); math.Abs(rel-50) > 1e-9 {
		t.Fatalf("Relative = %v", rel)
	}
	if rel := s.Relative("a", "missing", 2); rel != 0 {
		t.Fatalf("Relative vs missing = %v", rel)
	}
	out := s.Render()
	if !strings.Contains(out, "threads") || !strings.Contains(out, "300") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestBytesThroughput(t *testing.T) {
	r := Result{Bytes: 1 << 30, Elapsed: 2e9} // 1 GiB over 2s
	if g := r.GiBPerSec(); math.Abs(g-0.5) > 1e-9 {
		t.Fatalf("GiBPerSec = %v", g)
	}
	if (Result{}).OpsPerSec() != 0 || (Result{}).GiBPerSec() != 0 {
		t.Fatal("zero elapsed must not divide by zero")
	}
}
