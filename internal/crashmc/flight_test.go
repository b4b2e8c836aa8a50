package crashmc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// TestFlightRecorderCapturesBreach is the acceptance test for the
// breach flight recorder: the §4.2 missing-fence counterexample must
// ship a flight record whose span history contains the unfenced
// commit-marker store — i.e. a span holding a SpanEvFlush event whose
// line range covers a line the shrunk counterexample keeps persisted.
func TestFlightRecorderCapturesBreach(t *testing.T) {
	res := rowResult(t, "create-commit/arckfs")
	if len(res.Breaches) == 0 {
		t.Fatal("no counterexample; nothing to record")
	}
	ce := res.Breaches[0]
	if ce.Flight == nil {
		t.Fatal("counterexample has no flight record")
	}
	if len(ce.Flight.Spans) == 0 {
		t.Fatal("flight record holds no spans")
	}
	if ce.Flight.Reason != "crashmc:"+ce.Invariant {
		t.Fatalf("flight reason %q does not name the invariant %q", ce.Flight.Reason, ce.Invariant)
	}

	// The marker line the torn commit depends on is in Keep; some span
	// in the flight must have flushed it.
	covered := false
	for _, sp := range ce.Flight.Spans {
		for _, ev := range sp.Events {
			if ev.Kind != telemetry.SpanEvFlush {
				continue
			}
			lo, hi := ev.A, ev.A+ev.B*pmem.LineSize
			for _, lc := range ce.Crash.Keep {
				if lc.Off >= lo && lc.Off < hi {
					covered = true
				}
			}
		}
	}
	if !covered {
		t.Fatalf("no span in the flight flushed a kept marker line (Keep=%v)", ce.Crash.Keep)
	}
}

// TestFlightRecordWriteFile exercises the JSON artifact path end to
// end: the record lands in the requested directory, the name is
// sanitized, and the JSON round-trips with kinds rendered by name.
func TestFlightRecordWriteFile(t *testing.T) {
	ce := rowResult(t, "create-commit/arckfs").Breaches[0]

	dir := t.TempDir()
	path, err := ce.Flight.WriteFile(dir, "flight/create:commit")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-create-commit.json" {
		t.Fatalf("name not sanitized: %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back span.FlightRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Reason != ce.Flight.Reason || len(back.Spans) != len(ce.Flight.Spans) {
		t.Fatalf("round-trip lost content: %q/%d vs %q/%d",
			back.Reason, len(back.Spans), ce.Flight.Reason, len(ce.Flight.Spans))
	}
}
