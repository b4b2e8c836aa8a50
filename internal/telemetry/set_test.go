package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSetCountersAndGauges(t *testing.T) {
	s := NewSet()
	c := s.Counter("ops")
	c.Add(3)
	if again := s.Counter("ops"); again != c {
		t.Fatal("Counter must return the same instance per name")
	}
	var ext int64 = 41
	s.Gauge("ext", func() int64 { return ext })
	snap := s.Snapshot()
	if snap["ops"] != 3 || snap["ext"] != 41 {
		t.Fatalf("snapshot = %v", snap)
	}
	ext++
	c.Add(1)
	snap = s.Snapshot()
	if snap["ops"] != 4 || snap["ext"] != 42 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestSetWriteJSON(t *testing.T) {
	s := NewSet()
	s.Counter("b.two").Add(2)
	s.Counter("a.one").Add(1)
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]int64
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", sb.String(), err)
	}
	if got["a.one"] != 1 || got["b.two"] != 2 {
		t.Fatalf("roundtrip = %v", got)
	}
	if strings.Index(sb.String(), "a.one") > strings.Index(sb.String(), "b.two") {
		t.Fatalf("keys not sorted:\n%s", sb.String())
	}
}

func TestDelta(t *testing.T) {
	before := map[string]int64{"x": 10, "gone": 5}
	after := map[string]int64{"x": 25, "new": 7}
	d := Delta(before, after)
	if d["x"] != 15 || d["new"] != 7 || d["gone"] != -5 {
		t.Fatalf("delta = %v", d)
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Counter("shared").Add(1)
				s.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if s.Snapshot()["shared"] != 2000 {
		t.Fatalf("shared = %d", s.Snapshot()["shared"])
	}
}

func TestHeapGoalAllocatesNothing(t *testing.T) {
	if g := HeapGoal(); g <= 0 {
		t.Fatalf("HeapGoal = %d, want a positive byte count", g)
	}
	if n := testing.AllocsPerRun(100, func() { HeapGoal() }); n != 0 {
		t.Fatalf("HeapGoal allocates %v objects a read, want 0", n)
	}
}
