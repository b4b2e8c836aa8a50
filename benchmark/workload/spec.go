// Package workload holds the repo benchmark's five workloads: the seeded
// generators, the in-memory oracles that check them, the span recorder of
// the traced run, and the measurement loop that one child process of
// benchmark/run executes. It drives the system only through package arckfs,
// internal/fsapi and internal/kv, so every layer is measured from outside.
package workload

// Spec describes one workload. OpsPerSecond is a sizing constant, not a
// measurement: the runner turns a requested run length into a fixed
// operation count with it, so two commits always execute the same sequence.
// The values are the rates measured on the 2-vCPU host at the commit that
// defined the benchmark and must not be retuned afterwards.
type Spec struct {
	Name         string
	Why          string
	Threads      int
	OpsPerSecond int
	MinOps       int
	// SampleEvery is the latency sampling stride (a power of two): one op
	// in eight is timed, every turn for handoff.
	SampleEvery int
	// SpansPerOp sizes the traced run's preallocated span slice.
	SpansPerOp int
	// newImpl makes the workload's generator and oracle.
	newImpl func() impl
}

// Specs lists the workloads in the order the runner interleaves them.
var Specs = []Spec{
	{
		Name:         "meta_churn",
		Why:          "1 thread, private dirs: create/open/stat/rename/unlink cycles; libfs dir code, htable insert/delete and flush+fence epochs do the work, ~0 kernel crossings",
		Threads:      1,
		OpsPerSecond: 650000,
		MinOps:       2 * churnCycleOps,
		SampleEvery:  8,
		SpansPerOp:   2,
		newImpl:      func() impl { return &metaChurn{} },
	},
	{
		Name:         "data_rw",
		Why:          "1 thread, fd-based 4 KiB read/overwrite/append/truncate on private files: streaming stores, pmalloc and the block map; bypasses htable and paths (the no-change control for metadata work)",
		Threads:      1,
		OpsPerSecond: 140000,
		MinOps:       4096,
		SampleEvery:  8,
		SpansPerOp:   2,
		newImpl:      func() impl { return &dataRW{} },
	},
	{
		Name:         "lookup_shared",
		Why:          "2 threads, one five-deep dir of 4096 files: stat+open+read+close, a writer churning names beside the readers; the lock-free read plane does all the work, pmem persist and kernel none",
		Threads:      2,
		OpsPerSecond: 380000,
		MinOps:       4096,
		SampleEvery:  8,
		SpansPerOp:   5,
		newImpl:      func() impl { return &lookupShared{} },
	},
	{
		Name:         "handoff",
		Why:          "two apps alternate turns on a shared dir and 4 shared files, ReleaseAll each turn: the only place the kernel runs; acquire/release, verifier walks and map/unmap dominate",
		Threads:      1,
		OpsPerSecond: 240,
		MinOps:       64,
		SampleEvery:  1,
		SpansPerOp:   48,
		newImpl:      func() impl { return &handoff{} },
	},
	{
		Name:         "kv_app",
		Why:          "1 thread, LSM key-value store over ArckFS+: fill, overwrite, read; WAL append+fsync, multi-MiB table writes, flush/compaction spikes that only p99 shows (the paper's LevelDB macro)",
		Threads:      1,
		OpsPerSecond: 60000,
		MinOps:       8192,
		SampleEvery:  8,
		SpansPerOp:   2,
		newImpl:      func() impl { return &kvApp{} },
	},
}

// SpecByName returns the named workload's spec.
func SpecByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// OpsFor turns a per-repetition run length into the workload's fixed
// operation count.
func (s Spec) OpsFor(seconds float64) int {
	n := int(float64(s.OpsPerSecond) * seconds)
	if n < s.MinOps {
		n = s.MinOps
	}
	return n
}

// Metric is one named, unit-carrying number. Better is "higher" or "lower".
type Metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// EndToEnd is the bounded end-to-end metric set, the same on every workload.
// It must match BENCHMARK.json (a test compares them). Every metric here
// repeats within its bound on this host: the modeled clock and the
// allocation count are functions of the op sequence, and memory and set-up
// time move little.
var EndToEnd = []Metric{
	{"modeled_ns_per_op", "ns/op", "lower", 0.03},
	{"allocs_per_op", "1/op", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// HostClock is the host-clock end-to-end set. These are what a user of the
// running system sees, and the runner prints them first, with min, median
// and max; but the same commit moves them by 10-25 % from one minute to the
// next on the 2-vCPU host (measured, see README.md), which no bound the
// benchmark may set would survive. They are therefore reported without a
// bound, beside the per-layer metrics, and a claim on them needs the paired,
// interleaved procedure (run -workload W -reps N on parent and change).
// fail_ratio travels in the result line as failed/attempted.
var HostClock = []Metric{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "p99_us", Unit: "us", Better: "lower"},
	{Name: "recover_ms", Unit: "ms", Better: "lower"},
}

// layerMetric names a per-layer metric "<layer>.<name>". The tables below
// keep the two parts apart because arcklint's counterreg checker reserves
// string literals of the form "pmem.x", "kernel.x", "libfs.x", ... for
// registered telemetry counters: that way it checks the Counter column
// against the registry, and does not mistake a metric name for a counter.
func layerMetric(layer, name string) string { return layer + "." + name }

// counterMetric is a kind-C metric: the delta of the public telemetry
// counter Counter (a name in System.Telemetry().Snapshot()) over the timed
// region, divided by ops.
type counterMetric struct{ Metric, Counter string }

func counter(layer, name, counter string) counterMetric {
	return counterMetric{layerMetric(layer, name), counter}
}

var counterMetrics = []counterMetric{
	counter("libfs", "lease_hits_per_op", "leases.hit"),
	counter("libfs", "lease_misses_per_op", "leases.miss"),
	counter("libfs", "syscalls_avoided_per_op", "syscalls.avoided"),
	counter("libfs", "remaps_per_op", "libfs.remaps"),
	counter("libfs", "reacquires_per_op", "libfs.reacquires"),
	counter("htable", "read_locks_per_op", "htable.read_locks"),
	counter("pmalloc", "steals_local_per_op", "pmalloc.steals.local"),
	counter("pmalloc", "steals_remote_per_op", "pmalloc.steals.remote"),
	counter("pmem", "flushes_per_op", "pmem.flushes"),
	counter("pmem", "fences_per_op", "pmem.fences"),
	counter("pmem", "ntstores_per_op", "pmem.ntstores"),
	counter("pmem", "stores_per_op", "pmem.stores"),
	counter("pmem", "bytes_per_op", "pmem.bytes"),
	counter("pmem", "batch_dedup_per_op", "pmem.batch_dedup"),
	counter("kernel", "syscalls_per_op", "kernel.syscalls"),
	counter("kernel", "acquires_per_op", "kernel.acquires"),
	counter("kernel", "releases_per_op", "kernel.releases"),
	counter("kernel", "leased_releases_per_op", "kernel.leased_releases"),
	counter("kernel", "verifications_per_op", "kernel.verifications"),
	counter("kernel", "epoch_exclusive_per_op", "kernel.epoch_exclusive"),
	counter("kernel", "shard_acquisitions_per_op", "kernel.shard.acquisitions"),
	counter("kernel", "shard_contended_per_op", "kernel.shard.contended"),
	counter("verifier", "dentries_per_op", "verifier.dentries"),
	counter("verifier", "pages_per_op", "verifier.pages"),
}

// bytesPerUserByte is pmem write amplification: bytes stored per byte the
// workload wrote (0 on workloads that write no data).
var bytesPerUserByte = layerMetric("pmem", "bytes_per_user_byte")

// SpanMetric is a kind-S metric: the median duration of the benchmark's own
// span around one call, from the traced run.
type SpanMetric struct{ Metric, Span, Unit string }

// SpanMetrics come from the traced run with the cost model on.
var SpanMetrics = []SpanMetric{
	{"fsapi.create_ns", "fsapi.create", "ns"},
	{"fsapi.open_ns", "fsapi.open", "ns"},
	{"fsapi.stat_ns", "fsapi.stat", "ns"},
	{"fsapi.rename_ns", "fsapi.rename", "ns"},
	{"fsapi.unlink_ns", "fsapi.unlink", "ns"},
	{"fsapi.mkdir_ns", "fsapi.mkdir", "ns"},
	{"fsapi.rmdir_ns", "fsapi.rmdir", "ns"},
	{"fsapi.readdir_ns", "fsapi.readdir", "ns"},
	{"fsapi.read4k_ns", "fsapi.read4k", "ns"},
	{"fsapi.write4k_ns", "fsapi.write4k", "ns"},
	{"fsapi.append4k_ns", "fsapi.append4k", "ns"},
	{"fsapi.truncate_ns", "fsapi.truncate", "ns"},
	{"fsapi.fsync_ns", "fsapi.fsync", "ns"},
	{layerMetric("libfs", "release_all_us"), spanNames[spReleaseAll], "us"},
	{"kv.put_ns", "kv.put", "ns"},
	{"kv.get_ns", "kv.get", "ns"},
	{"kv.flush_ms", "kv.flush", "ms"},
}

// SoftwareSpanMetrics are the same spans from the second traced pass, cost
// model off: the software clock of those calls.
var SoftwareSpanMetrics = []SpanMetric{
	{"fsapi.create_sw_ns", "fsapi.create", "ns"},
	{"fsapi.open_sw_ns", "fsapi.open", "ns"},
	{"fsapi.unlink_sw_ns", "fsapi.unlink", "ns"},
	{"fsapi.rename_sw_ns", "fsapi.rename", "ns"},
	{"fsapi.read4k_sw_ns", "fsapi.read4k", "ns"},
	{"fsapi.write4k_sw_ns", "fsapi.write4k", "ns"},
}

// TimingDependent names the counter-derived metrics that are not a pure
// function of the op sequence, for two reasons found by measuring. libfs
// classifies a consumed page reserve as a lease hit or miss by a 2 s
// wall-clock TTL. And inode numbers and pages freed by unlink or truncate
// return to the application's pools only after an RCU grace period that a
// background goroutine drives, so how often the pools run dry and cross into
// the kernel for a grant (a syscall and its shard lock) varies by a few
// crossings per million ops. These are reported with their spread instead of
// being required to repeat exactly; the modeled clock, which contains the
// syscall term, must repeat within ModeledTolerance.
var TimingDependent = map[string]bool{
	layerMetric("libfs", "lease_hits_per_op"):          true,
	layerMetric("libfs", "lease_misses_per_op"):        true,
	layerMetric("libfs", "syscalls_avoided_per_op"):    true,
	layerMetric("kernel", "syscalls_per_op"):           true,
	layerMetric("kernel", "shard_acquisitions_per_op"): true,
	"costmodel.syscall_ns_per_op":                      true,
	"costmodel.modeled_share_pct":                      true, // a ratio to host time
	"costmodel.spin_error_pct":                         true, // a host measurement
	"modeled_ns_per_op":                                true, // within ModeledTolerance
}

// ModeledTolerance is how far modeled_ns_per_op may differ between two runs
// of one seed on a one-thread workload.
const ModeledTolerance = 0.005

// costTerms are the addends of modeled_ns_per_op, in print order.
var costTerms = []string{
	"costmodel.syscall_ns_per_op",
	"costmodel.flush_ns_per_op",
	"costmodel.fence_ns_per_op",
	"costmodel.ntstore_ns_per_op",
	"costmodel.pmwrite_ns_per_op",
	"costmodel.verify_ns_per_op",
	"costmodel.map_unmap_ns_per_op",
	"costmodel.numa_remote_ns_per_op",
}

// ProbeMetrics (kind P) come from the benchmark/probes subprocess; the
// runner prints null for them when that subprocess is unavailable.
var ProbeMetrics = []Metric{
	probe("htable", "lookup_64_ns", "ns"),
	probe("htable", "lookup_4k_ns", "ns"),
	probe("htable", "insert_ns", "ns"),
	probe("htable", "delete_ns", "ns"),
	probe("pmalloc", "alloc_ns", "ns"),
	probe("pmalloc", "free_ns", "ns"),
	probe("pmalloc", "alloc_batch_ns", "ns"),
	probe("pmem", "batch_flush_ns", "ns"),
	probe("pmem", "batch_barrier_ns", "ns"),
	probe("pmem", "write_stream_4k_ns", "ns"),
	probe("pmem", "read_4k_ns", "ns"),
	probe("kernel", "acquire_ns", "ns"),
	probe("kernel", "release_ns", "ns"),
	probe("kernel", "grant_pages_ns", "ns"),
	probe("kernel", "grant_inodes_ns", "ns"),
	probe("kernel", "mount_ms", "ms"),
	probe("verifier", "verify_dir_4k_us", "us"),
	probe("verifier", "verify_file_64m_us", "us"),
	probe("rcu", "read_lock_ns", "ns"),
	probe("rcu", "defer_ns", "ns"),
	probe("rcu", "synchronize_us", "us"),
	probe("hlock", "spin_lock_ns", "ns"),
	probe("hlock", "brlock_rlock_ns", "ns"),
	probe("telemetry", "snapshot_us", "us"),
	probe("tenancy", "spawn_us", "us"),
	probe("tenancy", "idle_bytes_per_tenant", "B"),
}

func probe(layer, name, unit string) Metric {
	return Metric{Name: layerMetric(layer, name), Unit: unit}
}

// FidelityMetrics compare ArckFS+ with ArckFS on the paper's three Table-2
// operations; the paper's reference is 83.3 / 92.8 / 92.2 %.
var FidelityMetrics = []Metric{
	{Name: "core.plus_vs_arckfs_open_pct", Unit: "%"},
	{Name: "core.plus_vs_arckfs_create_pct", Unit: "%"},
	{Name: "core.plus_vs_arckfs_delete_pct", Unit: "%"},
	{Name: "core.plus_vs_arckfs_modeled_open_pct", Unit: "%"},
	{Name: "core.plus_vs_arckfs_modeled_create_pct", Unit: "%"},
	{Name: "core.plus_vs_arckfs_modeled_delete_pct", Unit: "%"},
}

// PaperFidelity is the paper's figure for each fidelity metric: ArckFS+
// throughput as a share of ArckFS on open, create and delete.
var PaperFidelity = map[string]float64{
	"core.plus_vs_arckfs_open_pct":           83.3,
	"core.plus_vs_arckfs_create_pct":         92.8,
	"core.plus_vs_arckfs_delete_pct":         92.2,
	"core.plus_vs_arckfs_modeled_open_pct":   83.3,
	"core.plus_vs_arckfs_modeled_create_pct": 92.8,
	"core.plus_vs_arckfs_modeled_delete_pct": 92.2,
}

// PerLayer lists every per-layer metric in print order. It must match
// BENCHMARK.json (a test compares them).
func PerLayer() []Metric {
	var out []Metric
	add := func(name, unit, better string) {
		out = append(out, Metric{Name: name, Unit: unit, Better: better})
	}
	out = append(out, HostClock...)
	for _, m := range SpanMetrics {
		add(m.Metric, m.Unit, "lower")
	}
	add("kv.flush_max_ms", "ms", "lower")
	add("kv.scan_ms", "ms", "lower")
	add("kv.tables_end", "count", "lower")
	for _, m := range SoftwareSpanMetrics {
		add(m.Metric, m.Unit, "lower")
	}
	add("fsapi.trace_overhead_pct", "%", "lower")
	for _, m := range counterMetrics {
		add(m.Metric, "1/op", "lower")
	}
	add(bytesPerUserByte, "B/B", "lower")
	for _, t := range costTerms {
		add(t, "ns/op", "lower")
	}
	add("costmodel.modeled_share_pct", "%", "lower")
	add("costmodel.spin_error_pct", "%", "lower")
	for _, m := range ProbeMetrics {
		add(m.Name, m.Unit, "lower")
	}
	for _, m := range FidelityMetrics {
		add(m.Name, m.Unit, "higher")
	}
	return out
}
