package workload

import (
	"sort"
	"time"
)

// Span is one recorded interval. IDs are indices into the trace's span
// slice; Parent is -1 for the root. Start and End are nanoseconds since the
// tracer was created.
type Span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// CounterSnap is a telemetry snapshot taken when a phase span opens or
// closes, so ratios can be formed per phase.
type CounterSnap struct {
	Span     int32            `json:"span"`
	Edge     string           `json:"edge"` // "begin" or "end"
	Counters map[string]int64 `json:"counters"`
}

// rawSpan is the in-memory form: a name index instead of a string keeps the
// preallocated slice pointer-free, so recording does not feed the collector.
type rawSpan struct {
	parent     int32
	name       int32
	start, end int64
}

// Tracer records spans into a preallocated slice. It is single-goroutine;
// lookup_shared gives each worker its own. A nil *Tracer records nothing,
// which is how the untraced runs execute the same code.
type Tracer struct {
	t0    time.Time
	spans []rawSpan
	cur   int32
	snaps []CounterSnap
}

// Span names, indexed by the sp* constants.
const (
	spRun int32 = iota
	spSetup
	spWarmup
	spTimed
	spVerify
	spRecover
	spOracle
	spTurn
	spCreate
	spOpen
	spClose
	spStat
	spRename
	spUnlink
	spMkdir
	spRmdir
	spReaddir
	spRead4k
	spWrite4k
	spAppend4k
	spTruncate
	spFsync
	spReleaseAll
	spKVPut
	spKVGet
	spKVScan
	spKVFlush
)

var spanNames = [...]string{
	spRun: "run", spSetup: "setup", spWarmup: "warmup", spTimed: "timed", spVerify: "verify",
	spRecover: "core.recover", spOracle: "oracle", spTurn: "turn",
	spCreate: "fsapi.create", spOpen: "fsapi.open", spClose: "fsapi.close", spStat: "fsapi.stat",
	spRename: "fsapi.rename", spUnlink: "fsapi.unlink", spMkdir: "fsapi.mkdir", spRmdir: "fsapi.rmdir",
	spReaddir: "fsapi.readdir", spRead4k: "fsapi.read4k", spWrite4k: "fsapi.write4k",
	spAppend4k: "fsapi.append4k", spTruncate: "fsapi.truncate", spFsync: "fsapi.fsync",
	spReleaseAll: layerMetric("libfs", "release_all"), spKVPut: "kv.put", spKVGet: "kv.get", spKVScan: "kv.scan",
	spKVFlush: "kv.flush",
}

// NewTracer preallocates room for capacity spans.
func NewTracer(t0 time.Time, capacity int) *Tracer {
	return &Tracer{t0: t0, spans: make([]rawSpan, 0, capacity), cur: -1}
}

// Begin opens a span under the current one and makes it current.
func (tr *Tracer) Begin(name int32) int32 {
	if tr == nil {
		return -1
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, rawSpan{parent: tr.cur, name: name, start: int64(time.Since(tr.t0))})
	tr.cur = id
	return id
}

// End closes span id and makes its parent current.
func (tr *Tracer) End(id int32) {
	if tr == nil {
		return
	}
	tr.spans[id].end = int64(time.Since(tr.t0))
	tr.cur = tr.spans[id].parent
}

// Snap attaches a counter snapshot to an edge of span id.
func (tr *Tracer) Snap(id int32, edge string, counters map[string]int64) {
	if tr == nil {
		return
	}
	tr.snaps = append(tr.snaps, CounterSnap{Span: id, Edge: edge, Counters: counters})
}

// Adopt appends a worker tracer's spans (same t0) under parent, remapping IDs.
func (tr *Tracer) Adopt(w *Tracer, parent int32) {
	if tr == nil || w == nil {
		return
	}
	base := int32(len(tr.spans))
	for _, s := range w.spans {
		p := parent
		if s.parent >= 0 {
			p = base + s.parent
		}
		tr.spans = append(tr.spans, rawSpan{parent: p, name: s.name, start: s.start, end: s.end})
	}
}

// Spans renders the recorded spans for the trace file.
func (tr *Tracer) Spans(workload string) []Span {
	if tr == nil {
		return nil
	}
	out := make([]Span, len(tr.spans))
	for i, s := range tr.spans {
		out[i] = Span{ID: int32(i), Parent: s.parent, Name: spanNames[s.name], Start: s.start, End: s.end, Workload: workload}
	}
	return out
}

// SpanStat summarizes the spans of one name.
type SpanStat struct {
	Count    int     `json:"count"`
	MedianNS float64 `json:"median_ns"`
	MaxNS    float64 `json:"max_ns"`
	TotalNS  float64 `json:"total_ns"`
	// SelfNS is the total minus the part covered by child spans.
	SelfNS float64 `json:"self_ns"`
}

// Summary groups spans by name.
func (tr *Tracer) Summary() map[string]SpanStat {
	if tr == nil {
		return nil
	}
	durs := map[int32][]int64{}
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		durs[s.name] = append(durs[s.name], s.end-s.start)
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[int32]int64{}
	for i, s := range tr.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	out := make(map[string]SpanStat, len(durs))
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		var total int64
		for _, v := range d {
			total += v
		}
		out[spanNames[name]] = SpanStat{
			Count:    len(d),
			MedianNS: float64(d[len(d)/2]),
			MaxNS:    float64(d[len(d)-1]),
			TotalNS:  float64(total),
			SelfNS:   float64(self[name]),
		}
	}
	return out
}
