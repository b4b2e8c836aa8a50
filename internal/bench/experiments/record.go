package experiments

import (
	"encoding/json"
	"os"
	"sync"

	"arckfs/internal/harness"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
)

// Cell is one measurement in machine-readable form: the throughput the
// rendered tables show, plus the latency percentiles and counter deltas
// the tables omit.
type Cell struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	FS         string  `json:"fs"`
	Threads    int     `json:"threads"`
	Ops        int64   `json:"ops"`
	ElapsedNS  int64   `json:"elapsed_ns"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	GiBPerSec  float64 `json:"gib_per_sec,omitempty"`

	// Latency is the sampled per-op latency summary (nil when the
	// harness ran with sampling disabled).
	Latency *telemetry.LatencySummary `json:"latency,omitempty"`

	// Counters is the raw counter delta across the measured region.
	Counters map[string]int64 `json:"counters,omitempty"`

	// PerOp normalizes selected counters by completed operations:
	// flushes, fences, and syscalls per op.
	PerOp map[string]float64 `json:"per_op,omitempty"`

	// Apps is the per-application attribution delta for the cell —
	// crossings, persist traffic, and sampled op latency per tenant —
	// so downstream tooling can rank tenants without re-running.
	Apps []telemetry.AppStat `json:"apps,omitempty"`
}

// RunConfig echoes the configuration a record was produced under.
type RunConfig struct {
	Systems   []string `json:"systems"`
	Threads   []int    `json:"threads"`
	TotalOps  int      `json:"total_ops"`
	DevSizeMB int64    `json:"dev_size_mb"`
	Realistic bool     `json:"realistic"`
	Trials    int      `json:"trials"`
	// Persist is the ArckFS persist schedule the run used: "batched"
	// (write-combining batcher, the default) or "eager" (one clwb per
	// call site, the pre-batching behavior).
	Persist string `json:"persist"`
	// Faults names the device lie modes the run injected ("drop-flush",
	// "torn-line", comma mixes). Empty for an honest device.
	Faults string `json:"faults,omitempty"`
	// MaxInflight is the crossing admission scheduler's slot count (0 =
	// admission off, the default outside the tenants experiment). Tenants
	// echoes the tenants experiment's population sweep.
	MaxInflight int   `json:"max_inflight,omitempty"`
	Tenants     []int `json:"tenants,omitempty"`
}

// RunRecord is the top-level JSON document arckbench -json emits.
type RunRecord struct {
	Tool   string    `json:"tool"`
	Config RunConfig `json:"config"`
	Cells  []Cell    `json:"cells"`
}

// Recorder accumulates Cells across experiments. A nil *Recorder is
// valid and records nothing, so experiments call it unconditionally.
type Recorder struct {
	mu  sync.Mutex
	rec RunRecord
}

// NewRecorder starts a record for one arckbench invocation.
func NewRecorder(cfg Config) *Recorder {
	cfg.fill()
	persist := "batched"
	if cfg.Eager {
		persist = "eager"
	}
	faults := ""
	if cfg.Faults != pmem.FaultsNone {
		faults = cfg.Faults.String()
	}
	rc := RunConfig{
		Systems:     cfg.Systems,
		Threads:     cfg.Threads,
		TotalOps:    cfg.TotalOps,
		DevSizeMB:   cfg.DevSize >> 20,
		Realistic:   cfg.Realistic,
		Trials:      cfg.Trials,
		Persist:     persist,
		Faults:      faults,
		MaxInflight: cfg.MaxInflight,
		Tenants:     cfg.TenantCounts,
	}
	return &Recorder{rec: RunRecord{Tool: "arckbench", Config: rc}}
}

// perOpKeys maps counter names to their per-op JSON keys.
var perOpKeys = map[string]string{
	"pmem.flushes":     "flushes",
	"pmem.fences":      "fences",
	"pmem.ntstores":    "ntstores",
	"syscalls":         "syscalls",
	"syscalls.avoided": "syscalls_avoided",
	"kernel.acquires":  "acquires",
	// span.recorded is the tracer's sampled-span gauge: zero whenever
	// tracing is disabled, which the obs-smoke CI bound pins.
	"span.recorded": "spans",
	// pmalloc.steals.remote counts pages stolen across NUMA node groups;
	// node-local allocation paths keep it at zero.
	"pmalloc.steals.remote": "steals_remote",
	// kernel.admission.* meter the fair-share crossing scheduler: how
	// many crossings were admitted, how many had to queue, their total
	// queued wait, and how many crossings the per-tenant rate quota
	// throttled. The tenants benchcheck bounds pin queued and throttled
	// per-op.
	"kernel.admission.admitted":  "admitted",
	"kernel.admission.queued":    "admit_queued",
	"kernel.admission.wait_ns":   "admit_wait_ns",
	"kernel.admission.throttled": "throttled",
}

// Add records one harness result under the given experiment name.
func (r *Recorder) Add(experiment string, res harness.Result) {
	if r == nil {
		return
	}
	c := Cell{
		Experiment: experiment,
		Workload:   res.Workload,
		FS:         res.FS,
		Threads:    res.Threads,
		Ops:        res.Ops,
		ElapsedNS:  res.Elapsed.Nanoseconds(),
		OpsPerSec:  res.OpsPerSec(),
		GiBPerSec:  res.GiBPerSec(),
		Latency:    res.Lat,
		Counters:   res.Counters,
		Apps:       res.Apps,
	}
	if res.Ops > 0 && len(res.Counters) > 0 {
		c.PerOp = map[string]float64{}
		for counter, key := range perOpKeys {
			if v, ok := res.Counters[counter]; ok {
				c.PerOp[key] = float64(v) / float64(res.Ops)
			}
		}
	}
	// p99_us is the sampled per-op latency tail, exposed under PerOp so
	// bounds files can pin it. Unlike the counter-derived metrics it
	// does depend on host speed, so bounds on it must be loose — they
	// exist to catch latency that scales with population or backlog
	// (milliseconds), not percent-level drift.
	if res.Lat != nil {
		if c.PerOp == nil {
			c.PerOp = map[string]float64{}
		}
		c.PerOp["p99_us"] = float64(res.Lat.P99NS) / 1e3
	}
	r.mu.Lock()
	r.rec.Cells = append(r.rec.Cells, c)
	r.mu.Unlock()
}

// Record returns a copy of the accumulated record.
func (r *Recorder) Record() RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.rec
	rec.Cells = append([]Cell(nil), r.rec.Cells...)
	return rec
}

// WriteFile writes the record as indented JSON.
func (r *Recorder) WriteFile(path string) error {
	rec := r.Record()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
