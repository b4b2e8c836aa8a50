package span

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/race"
	"arckfs/internal/telemetry"
)

// TestDisabledOverheadPin pins the disabled-tracing cost: Begin/End on a
// disabled tracer record nothing and (outside -race builds) allocate
// nothing.
func TestDisabledOverheadPin(t *testing.T) {
	tr := New(64, 64)
	l := tr.NewLocal()
	if race.Enabled {
		for i := 0; i < 1000; i++ {
			sp := l.Begin(fsapi.OpCreate, 1)
			sp.Event(telemetry.SpanEvFence, 0, 0)
			l.End(sp, nil)
		}
	} else {
		allocs := testing.AllocsPerRun(1000, func() {
			sp := l.Begin(fsapi.OpCreate, 1)
			sp.Event(telemetry.SpanEvFence, 0, 0)
			l.End(sp, nil)
		})
		if allocs != 0 {
			t.Fatalf("disabled Begin/End allocates %.1f objects per op, want 0", allocs)
		}
	}
	if got := tr.Recorded(); got != 0 {
		t.Fatalf("disabled tracer recorded %d spans, want 0", got)
	}
	if tr.Snapshot() != nil {
		t.Fatalf("disabled tracer retained spans")
	}
}

// TestSamplingOverheadPin pins the 1-in-64 policy: exactly ops/64 spans
// record, and the sampled-out path does not allocate.
func TestSamplingOverheadPin(t *testing.T) {
	tr := New(1024, 64)
	tr.SetEnabled(true)
	l := tr.NewLocal()
	const ops = 64 * 10
	for i := 0; i < ops; i++ {
		sp := l.Begin(fsapi.OpWrite, 7)
		sp.Event(telemetry.SpanEvFlush, 0, 1)
		l.End(sp, nil)
	}
	if got := tr.Recorded(); got != ops/64 {
		t.Fatalf("recorded %d spans over %d ops, want exactly %d", got, ops, ops/64)
	}
	if !race.Enabled {
		// AllocsPerRun's uncounted warm-up call lands on the sample
		// boundary (op 640); the 62 measured calls that follow all take
		// the sampled-out path, which must not allocate.
		allocs := testing.AllocsPerRun(62, func() {
			sp := l.Begin(fsapi.OpWrite, 7)
			sp.Event(telemetry.SpanEvFlush, 0, 1)
			l.End(sp, nil)
		})
		if allocs != 0 {
			t.Fatalf("sampled-out Begin/End allocates %.1f objects per op, want 0", allocs)
		}
	}
	for _, sp := range tr.Snapshot() {
		if sp.App != 7 || sp.Op != fsapi.OpWrite {
			t.Fatalf("span carries app=%d op=%v, want app=7 op=write", sp.App, sp.Op)
		}
		if sp.Count(telemetry.SpanEvFlush) != 1 {
			t.Fatalf("span lost its child event: %v", sp)
		}
	}
}

func TestSampleEveryOneRecordsEverything(t *testing.T) {
	tr := New(256, 1)
	tr.SetEnabled(true)
	l := tr.NewLocal()
	for i := 0; i < 100; i++ {
		l.End(l.Begin(fsapi.OpStat, 0), nil)
	}
	if got := tr.Recorded(); got != 100 {
		t.Fatalf("sample-every-1 recorded %d of 100", got)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(16, 1)
	tr.SetEnabled(true)
	l := tr.NewLocal()
	for i := 0; i < 100; i++ {
		l.End(l.Begin(fsapi.OpCreate, int64(i)), nil)
	}
	spans := tr.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(spans))
	}
	for _, sp := range spans {
		if sp.App < 84 {
			t.Fatalf("ring retained stale span app=%d, want >= 84", sp.App)
		}
	}
}

// TestConcurrentLocals exercises many locals recording in parallel while
// a reader snapshots, under the race detector in CI.
func TestConcurrentLocals(t *testing.T) {
	tr := New(32, 1)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := tr.NewLocal()
			for i := 0; i < 500; i++ {
				sp := l.Begin(fsapi.OpWrite, int64(w))
				sp.Event(telemetry.SpanEvFence, int64(i), 0)
				l.End(sp, nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, sp := range tr.Snapshot() {
				_ = sp.DurNS
			}
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Recorded(); got != 8*500 {
		t.Fatalf("recorded %d spans, want %d", got, 8*500)
	}
}

func TestSlowestAndErrors(t *testing.T) {
	tr := New(64, 1)
	tr.SetEnabled(true)
	l := tr.NewLocal()
	sp := l.Begin(fsapi.OpRename, 3)
	l.End(sp, errors.New("boom"))
	for i := 0; i < 5; i++ {
		l.End(l.Begin(fsapi.OpStat, 3), nil)
	}
	slow := tr.Slowest(2)
	if len(slow) != 2 {
		t.Fatalf("Slowest(2) returned %d spans", len(slow))
	}
	if slow[0].DurNS < slow[1].DurNS {
		t.Fatalf("Slowest not ordered by duration")
	}
	found := false
	for _, s := range tr.Snapshot() {
		if s.Err == "boom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("error outcome not retained")
	}
}

func TestFlightRecordJSON(t *testing.T) {
	tr := New(64, 1)
	tr.SetEnabled(true)
	l := tr.NewLocal()
	sp := l.Begin(fsapi.OpCreate, 2)
	sp.Event(telemetry.SpanEvFlush, 4096, 2)
	sp.Event(telemetry.SpanEvFence, 2, 0)
	sp.Event(telemetry.SpanEvCrossing, int64(telemetry.EvCommit), 1500)
	l.End(sp, nil)

	fr := tr.Flight("test-breach", "invariant I2")
	b, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{
		`"reason": "test-breach"`, `"op": "create"`,
		`"kind": "flush"`, `"kind": "fence"`, `"kind": "crossing"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("flight record JSON missing %s:\n%s", want, s)
		}
	}
}

// TestNilSafety: every method must no-op on nil receivers so call sites
// need no guards.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.SetEnabled(true)
	if tr.Enabled() || tr.Recorded() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer not inert")
	}
	var l *Local = tr.NewLocal()
	sp := l.Begin(fsapi.OpCreate, 0)
	sp.Event(telemetry.SpanEvFence, 0, 0)
	sp.SpanEvent(telemetry.SpanEvFence, 0, 0)
	if sp.Count(telemetry.SpanEvFence) != 0 {
		t.Fatal("nil span counted events")
	}
	l.End(sp, nil)
}

func BenchmarkBeginEndDisabled(b *testing.B) {
	tr := New(256, 64)
	l := tr.NewLocal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.End(l.Begin(fsapi.OpWrite, 1), nil)
	}
}

func BenchmarkBeginEndSampled(b *testing.B) {
	tr := New(256, 64)
	tr.SetEnabled(true)
	l := tr.NewLocal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := l.Begin(fsapi.OpWrite, 1)
		sp.Event(telemetry.SpanEvFlush, 0, 1)
		l.End(sp, nil)
	}
}
