package telemetry

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"sync"
)

// Set is an expvar-style counter registry: named int64 gauges, each
// reading state its owner keeps (device statistics, kernel counters), that
// a snapshot reads atomically enough for monitoring, so one snapshot
// covers the whole system.
type Set struct {
	mu      sync.Mutex
	sources map[string]func() int64
}

// NewSet creates an empty registry.
func NewSet() *Set {
	return &Set{sources: make(map[string]func() int64)}
}

// Gauge registers a named read-out. fn must be safe to call from any
// goroutine. Registering an existing name replaces it.
func (s *Set) Gauge(name string, fn func() int64) {
	s.mu.Lock()
	s.sources[name] = fn
	s.mu.Unlock()
}

// Snapshot reads every source. The result is a point-in-time view; with
// concurrent writers individual values are atomic but the set as a whole
// is not.
func (s *Set) Snapshot() map[string]int64 {
	s.mu.Lock()
	fns := make(map[string]func() int64, len(s.sources))
	for name, fn := range s.sources {
		fns[name] = fn
	}
	s.mu.Unlock()
	out := make(map[string]int64, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// WriteJSON renders the snapshot as pretty-printed JSON (encoding/json
// sorts map keys, so the output is stable).
func (s *Set) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// heapGoal is HeapGoal's sample, allocated once.
var heapGoal = struct {
	sync.Mutex
	s []metrics.Sample
}{s: []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}}

// HeapGoal returns the Go collector's heap goal: the heap size at which the
// next collection starts. It is a level gauge's read-out and allocates
// nothing.
func HeapGoal() int64 {
	heapGoal.Lock()
	defer heapGoal.Unlock()
	metrics.Read(heapGoal.s)
	return int64(heapGoal.s[0].Value.Uint64())
}

// Delta returns after-before per key, keeping keys that exist in either
// snapshot (a key missing from one side counts as zero).
func Delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	for k, v := range before {
		if _, ok := after[k]; !ok {
			out[k] = -v
		}
	}
	return out
}
