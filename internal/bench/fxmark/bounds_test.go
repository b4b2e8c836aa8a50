package fxmark

import (
	"math"
	"testing"

	"arckfs/internal/core"
	"arckfs/internal/harness"
	"arckfs/internal/kernel"
)

// costBound is one row of the cost gate: on every measured cell of (fs,
// workload) metric per completed operation must stay within [min, max]. metric is
// a telemetry counter key, or p99Metric. A min bound exists where the
// count is the optimization (a floor on lease hits catches the fast path
// silently no longer firing); min 0 sets no floor, since counts are never
// negative.
//
// Per-op counts do not depend on host speed, so the bounds are tight:
// about 20 % above the measured value. If an intentional change moves a
// count, re-measure with go test -v -run TestCostBounds and update the
// row in the same commit.
type costBound struct {
	fs, workload, metric string
	min, max             float64
	note                 string
}

// p99Metric is the sampled per-op latency tail in µs. Unlike the counts
// it depends on host speed, so its one row is loose: it catches tails
// that scale with population or backlog (milliseconds), not drift.
const p99Metric = "p99_us"

var noMax = math.Inf(1)

var costBounds = []costBound{
	// Persistence and crossing costs of the default batched schedule, over
	// the table2 and fxmark cells.
	{fs: "arckfs+", workload: "MWCL", metric: "pmem.flushes", max: 1.6,
		note: "create-heavy: batcher coalesces the dentry body's lines, the inode record streams (measured 1.26)"},
	{fs: "arckfs+", workload: "MWCL", metric: "pmem.ntstores", max: 2.7,
		note: "create streams its one-line inode record; the rest is the zero-streamed tail-set and log pages (measured 1.40-2.28; a two-line record reads 2.40-3.28)"},
	{fs: "arckfs+", workload: "MWCL", metric: "pmem.fences", min: 1.9, max: 2.1,
		note: "patched create is exactly two fences (body epoch + marker epoch); more means fence creep, fewer means a §4.2-class fence went missing"},
	{fs: "arckfs", workload: "MWCL", metric: "pmem.fences", max: 1.1,
		note: "buggy create is one combined epoch; the +1 delta vs arckfs+ is the §4.2 fix"},
	{fs: "arckfs+", workload: "MWCM", metric: "pmem.flushes", max: 1.6,
		note: "shared-directory create, same batched schedule as MWCL"},
	{fs: "arckfs+", workload: "MWUL", metric: "pmem.flushes", max: 3.9,
		note: "create + unlink: the create's 1.26, then the cleared marker and the freed record, one line each (measured 3.26)"},
	{fs: "arckfs+", workload: "MWRL", metric: "pmem.flushes", max: 2.7,
		note: "rename: batched parent rewrite (measured 2.26)"},
	{fs: "arckfs+", workload: "DWAL", metric: "pmem.flushes", max: 1.3,
		note: "4K append: data goes through line-aligned streaming stores, only the map entry's line is flushed, the inode record streams (measured 1.00)"},
	{fs: "arckfs+", workload: "DWAL", metric: "pmem.fences", max: 2.1,
		note: "append allocates, so the data barrier before the size update must stay"},
	{fs: "arckfs+", workload: "DWOL", metric: "pmem.flushes", max: 0.1,
		note: "4K in-place overwrite is fully streamed: zero explicit write-backs"},
	{fs: "arckfs+", workload: "DWOL", metric: "pmem.fences", max: 1.1,
		note: "in-place overwrite merges the data barrier into the inode epoch: one fence"},
	{fs: "arckfs+", workload: "DWTL", metric: "pmem.flushes", max: 1.2,
		note: "truncate coalesces adjacent 8-byte map entries into line flushes"},
	{fs: "arckfs+", workload: "MWRA", metric: "syscalls", max: 1.15,
		note: "release/reopen round trip: only the leased release crosses (measured 1.00); the reopen+write re-acquire is a dormant-mapping CAS with no crossing"},
	{fs: "arckfs+", workload: "MWRA", metric: "kernel.acquires", max: 0.02,
		note: "the lease-hit re-acquire must not reach the kernel Acquire path at all (measured 0.00)"},
	{fs: "arckfs+", workload: "MWRA", metric: "syscalls.avoided", min: 0.95, max: noMax,
		note: "every iteration's re-acquire should be a lease hit (measured 1.00); a drop means the lease fast path stopped firing"},
	{fs: "arckfs", workload: "MWRA", metric: "syscalls", max: 2.6,
		note: "unpatched LibFS pays the full release + re-acquire crossings every iteration (measured 2.00)"},
	{fs: "arckfs+", workload: "MWRA", metric: "pmem.fences", min: 1.9, max: 2.4,
		note: "the overwrite's fence plus one commit fence for the leased release crossing (measured 1.980-1.999)"},
	{fs: "arckfs+", workload: "MWCL", metric: "span.recorded", max: 0,
		note: "benchmarks run with span tracing disabled, so the tracer must record exactly zero spans (any nonzero value means the atomic enable gate leaks work onto the hot path)"},
	{fs: "arckfs+", workload: "DWAL", metric: "pmalloc.steals.remote", max: 0,
		note: "NUMA pin: with the device far from full, appends refill from the shared pool or steal node-locally; a cross-node steal here means the node-local allocation path regressed"},

	// Multi-tenant serving, over the tenant sweep and the revocation storm.
	{fs: "arckfs+", workload: "Tenants", metric: "kernel.admission.admitted", min: 0.002, max: 0.02,
		note: "steady-state fd appends cross only for page-grant refills (measured 0.0044/op); growth means the dormant-lease fast path stopped firing, zero means crossings bypassed admission accounting"},
	{fs: "arckfs+", workload: "Tenants", metric: "kernel.admission.queued", max: 0.05,
		note: "the active subset fits the admission slots at steady state (measured 0); sustained queueing here means crossings multiplied or slots shrank"},
	{fs: "arckfs+", workload: "Tenants", metric: "kernel.admission.throttled", max: 0.001,
		note: "the sweep installs page/inode quotas but no crossing-rate quota, so any throttle is spurious (measured 0)"},
	{fs: "arckfs+", workload: "RevocationStorm", metric: "kernel.admission.admitted", min: 1.9, max: 2.1,
		note: "one migration is exactly two admitted crossings: the voluntary release and the next tenant's re-acquire (measured 2.00)"},
	{fs: "arckfs+", workload: "RevocationStorm", metric: "kernel.acquires", min: 0.95, max: 1.05,
		note: "every migration pays exactly one kernel Acquire (unmap + verify + rebuild); more means redundant transfers, fewer means the storm stopped migrating"},
	{fs: "arckfs+", workload: "RevocationStorm", metric: "pmem.fences", min: 1.9, max: 2.4,
		note: "a migration is the overwrite's fence plus one commit fence for its whole release crossing (measured 2.002); more means the crossing fences more than once"},
	{fs: "arckfs+", workload: "RevocationStorm", metric: p99Metric, max: 2000,
		note: "per-migration tail (measured 38-76 µs -fast). Host-speed sensitive, hence the wide margin; the bound catches tails that grow with the 256-tenant population or with admission backlog, which land in milliseconds"},

	// The fences of the retired batching ablation (EXPERIMENTS.md): the
	// write-combining batcher moves clwbs, never fences, so these sit where
	// the unbatched schedule put them.
	{fs: "arckfs+", workload: "MWUL", metric: "pmem.fences", max: 4.8,
		note: "create + unlink: the create's two epochs, then the cleared marker and the freed record each end on their own Barrier (measured 4.01-4.04)"},
	{fs: "arckfs+", workload: "MWRL", metric: "pmem.fences", max: 3.6,
		note: "rename: new entry's body and marker epochs, then the old marker's (measured 3.01-3.03)"},
	{fs: "arckfs+", workload: "DWTL", metric: "pmem.fences", max: 1.2,
		note: "truncate: map entries and inode record in one epoch (measured 1.00)"},
}

// costCell is one measured cell, labelled with the system the test built
// (not fs.Name(), which a bug mask alone would relabel) and the arckbench
// experiment that measures it.
type costCell struct {
	fs, exp string
	harness.Result
}

func (c costCell) perOp(metric string) (float64, bool) {
	if metric == p99Metric {
		if c.Lat == nil {
			return 0, false
		}
		return float64(c.Lat.P99NS) / 1e3, true
	}
	v, ok := c.Counters[metric]
	if !ok || c.Ops == 0 {
		return 0, false
	}
	return float64(v) / float64(c.Ops), true
}

// TestCostBounds is the cost gate: it runs the cells arckbench -fast
// measures — table2 (FxMark metadata at 1-2 threads, 64 MiB), fxmark
// (every FxMark group at 1-16 threads, 128 MiB), 800 ops a cell; the tenant
// sweep (16 to 10k tenants, 64 MiB) and the revocation storm (256
// tenants, 1024 migrations) — and checks every costBounds row against
// every cell it names. A row no cell measures fails too: the workload or
// system was renamed and the row went stale.
func TestCostBounds(t *testing.T) {
	var cells []costCell
	run := func(exp, fs string, w Workload, threads int, devSize int64) {
		mode := core.ArckFSPlus
		if fs == "arckfs" {
			mode = core.ArckFS
		}
		sys, err := core.NewSystem(core.Config{Mode: mode, DevSize: devSize})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorkload(sys.NewApp(0, 0), w, threads, 800/threads, Defaults())
		if err != nil {
			t.Fatalf("%s/%s@%d: %v", fs, w.Name, threads, err)
		}
		cells = append(cells, costCell{fs, exp, res})
	}
	for _, fs := range []string{"arckfs+", "arckfs"} {
		for _, w := range Metadata {
			for _, th := range []int{1, 2} {
				run("table2", fs, w, th, 64<<20)
			}
		}
		for _, group := range [][]Workload{Metadata, Leases, Lookup, DataOps} {
			for _, w := range group {
				for _, th := range []int{1, 2, 4, 8, 16} {
					run("fxmark", fs, w, th, 128<<20)
				}
			}
		}
	}

	// The tenant cells as arckbench -exp tenants builds them: 4 admission
	// slots and a page/inode quota on every tenant.
	tenantSys := func() *core.System {
		sys, err := core.NewSystem(core.Config{Mode: core.ArckFSPlus, DevSize: 64 << 20, MaxInflight: 4})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	quota := kernel.Quota{MaxPages: 8192, MaxInodes: 2048, Weight: 1}
	for _, n := range []int{16, 128, 1000, 4000, 10000} {
		res, err := Tenants(tenantSys(), n, TenantsConfig{Quota: quota})
		if err != nil {
			t.Fatalf("tenants@%d: %v", n, err)
		}
		cells = append(cells, costCell{"arckfs+", "tenants", res.Active})
	}
	storm, err := RevocationStorm(tenantSys(), 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, costCell{"arckfs+", "storm", storm.Result})

	for _, b := range costBounds {
		row := b.fs + "/" + b.workload + " " + b.metric
		lo, hi, n := math.Inf(1), math.Inf(-1), 0
		for _, c := range cells {
			if c.fs != b.fs || c.Workload != b.workload {
				continue
			}
			v, ok := c.perOp(b.metric)
			if !ok {
				continue
			}
			n++
			lo, hi = min(lo, v), max(hi, v)
			if v > b.max {
				t.Errorf("%s = %.3f per op in %s@%d exceeds max %.3f — %s", row, v, c.exp, c.Threads, b.max, b.note)
			}
			if v < b.min {
				t.Errorf("%s = %.3f per op in %s@%d undercuts min %.3f — %s", row, v, c.exp, c.Threads, b.min, b.note)
			}
		}
		if n == 0 {
			t.Errorf("%s: no cell measures this row (stale row or missing cell)", row)
			continue
		}
		t.Logf("%-52s %8.3f – %-8.3f over %d cells", row, lo, hi, n)
	}
}
