package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSetCountersAndGauges(t *testing.T) {
	s := NewSet()
	var ops atomic.Int64
	s.Gauge("ops", ops.Load)
	ops.Add(3)
	var ext int64 = 41
	s.Gauge("ext", func() int64 { return ext })
	snap := s.Snapshot()
	if snap["ops"] != 3 || snap["ext"] != 41 {
		t.Fatalf("snapshot = %v", snap)
	}
	ext++
	ops.Add(1)
	snap = s.Snapshot()
	if snap["ops"] != 4 || snap["ext"] != 42 {
		t.Fatalf("snapshot = %v", snap)
	}
	s.Gauge("ops", func() int64 { return -1 })
	if got := s.Snapshot()["ops"]; got != -1 {
		t.Fatalf("re-registered gauge reads %d, want the replacement's -1", got)
	}
}

func TestSetWriteJSON(t *testing.T) {
	s := NewSet()
	s.Gauge("b.two", func() int64 { return 2 })
	s.Gauge("a.one", func() int64 { return 1 })
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
	var shared atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Gauge("shared", shared.Load)
				shared.Add(1)
				s.Snapshot()
			}
		}()
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
