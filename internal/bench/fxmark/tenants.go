package fxmark

import (
	"fmt"
	"time"

	"arckfs/internal/core"
	"arckfs/internal/fsapi"
	"arckfs/internal/harness"
	"arckfs/internal/kernel"
	"arckfs/internal/telemetry"
	"arckfs/internal/tenancy"
)

// The Tenants sweep and the revocation storm are the multi-tenant
// serving experiments: unlike the FxMark workloads (one LibFS, many
// threads), they drive one kernel Controller under many LibFS instances
// through a tenancy.Registry. The sweep answers "what does the Nth
// tenant cost the others" — spawn/retire latency and active-subset
// throughput as the population grows from tens to tens of thousands —
// and the storm answers "what does one hot file migrating across the
// population cost", the worst case for the ownership-transfer design.

// The tenant-scaling sweep's fixed shape: tenantWorkers tenants spread
// across the population run tenantOps appends each, and every tenant gets
// tenantQuota, so the sweep also measures the grant-time enforcement
// path, not just unlimited tenants.
const (
	tenantWorkers = 8
	tenantOps     = 200
)

var tenantQuota = kernel.Quota{MaxPages: 8192, MaxInodes: 2048}

// TenantsResult is one cell of the tenant-scaling sweep.
type TenantsResult struct {
	Tenants int
	// SpawnMicros / RetireMicros are mean per-tenant registry latencies
	// over the whole population — the numbers that expose a spin-up path
	// that degrades with population size.
	SpawnMicros  float64
	RetireMicros float64
	// Active is the measured active-subset workload: Threads holds the
	// *population* size (so a Series over cells reads as the scaling
	// curve), Ops/Lat/Counters the usual harness meaning.
	Active harness.Result
}

// Tenants runs the tenant-scaling experiment at one population size: n
// tenants spawned under one Controller, an active subset spread across
// the population running a create/write/unlink mix in per-tenant
// namespaces, then the whole population retired.
func Tenants(sys *core.System, n int) (TenantsResult, error) {
	reg := tenancy.NewRegistry(sys)

	spawnStart := time.Now()
	tenants := make([]*tenancy.Tenant, n)
	for i := range tenants {
		t, err := reg.Spawn(tenantQuota)
		if err != nil {
			return TenantsResult{}, fmt.Errorf("spawn %d: %w", i, err)
		}
		tenants[i] = t
	}
	spawnEl := time.Since(spawnStart)

	workers := min(tenantWorkers, n)
	// Spread the active subset across the population so shard and app-ID
	// locality do not flatter the run.
	active := make([]*tenancy.Tenant, workers)
	for i := range active {
		active[i] = tenants[i*n/workers]
	}
	// Serial setup with root handoff: inode ownership is exclusive in the
	// Trio model, so each active tenant creates and opens its private
	// file, then voluntarily releases everything it touched before the
	// next tenant walks the root directory. The measured region then runs
	// fd-based appends only — every write reactivates the tenant's own
	// file through the lease/reacquire path, so what contends is exactly
	// the shared kernel substrate (the epoch lock, the shadow shards, page
	// grants against the quota), not the namespace.
	threads := make([]fsapi.Thread, workers)
	fds := make([]fsapi.FD, workers)
	for i, tn := range active {
		th := tn.Thread(0)
		p := fmt.Sprintf("/t%d", i)
		if err := th.Create(p); err != nil {
			return TenantsResult{}, fmt.Errorf("setup create %s: %w", p, err)
		}
		fd, err := th.Open(p)
		if err != nil {
			return TenantsResult{}, fmt.Errorf("setup open %s: %w", p, err)
		}
		threads[i], fds[i] = th, fd
		if err := tn.FS().ReleaseAll(); err != nil {
			return TenantsResult{}, fmt.Errorf("setup release %d: %w", i, err)
		}
	}
	res := harness.RunCounted(harness.SourceOf(sys), "arckfs+", "Tenants",
		workers, tenantOps, func(tid, i int) error {
			_, err := threads[tid].WriteAt(fds[tid], tenantBlock[:], int64(i)*4096)
			return err
		})
	res.Threads = n // the population is the x-axis, not the worker count
	if res.Err != nil {
		return TenantsResult{}, res.Err
	}

	retireStart := time.Now()
	if err := reg.RetireAll(); err != nil {
		return TenantsResult{}, fmt.Errorf("retire: %w", err)
	}
	retireEl := time.Since(retireStart)

	return TenantsResult{
		Tenants:      n,
		SpawnMicros:  spawnEl.Seconds() * 1e6 / float64(n),
		RetireMicros: retireEl.Seconds() * 1e6 / float64(n),
		Active:       res,
	}, nil
}

var tenantBlock [4096]byte

// StormResult is the revocation-storm measurement: one hot file (and
// its parent directory) migrating ownership across the whole tenant
// population, every write a full release-verify-acquire cycle.
type StormResult struct {
	Tenants    int
	Migrations int
	Result     harness.Result // Lat carries the per-migration percentiles
}

// RevocationStorm spawns n tenants and ping-pongs one hot file across
// all of them round-robin: tenant k writes a 4 KiB block, voluntarily
// releases the inode, and the next tenant's acquire pays the transfer's
// unmap + verify + rebuild. Per-migration latency lands in the result's
// histogram; TestCostBounds bounds its p99.
func RevocationStorm(sys *core.System, n, migrations int) (StormResult, error) {
	if n < 2 {
		return StormResult{}, fmt.Errorf("storm needs >=2 tenants, got %d", n)
	}
	reg := tenancy.NewRegistry(sys)
	tenants := make([]*tenancy.Tenant, n)
	for i := range tenants {
		t, err := reg.Spawn(kernel.Quota{})
		if err != nil {
			return StormResult{}, fmt.Errorf("spawn %d: %w", i, err)
		}
		tenants[i] = t
	}
	// Setup with root handoff: tenant 0 creates the hot file; then every
	// tenant opens it once (caching the fd) and releases everything, so
	// the measured loop migrates only the hot inode, not the root.
	t0 := tenants[0].Thread(0)
	if err := t0.Create("/hot"); err != nil {
		return StormResult{}, err
	}
	st, err := t0.Stat("/hot")
	if err != nil {
		return StormResult{}, err
	}
	ino := st.Ino
	threads := make([]fsapi.Thread, n)
	fds := make([]fsapi.FD, n)
	if err := tenants[0].FS().ReleaseAll(); err != nil {
		return StormResult{}, err
	}
	for k := 0; k < n; k++ {
		th := tenants[k].Thread(0)
		fd, err := th.Open("/hot")
		if err != nil {
			return StormResult{}, fmt.Errorf("setup open %d: %w", k, err)
		}
		threads[k], fds[k] = th, fd
		if err := tenants[k].FS().ReleaseAll(); err != nil {
			return StormResult{}, fmt.Errorf("setup release %d: %w", k, err)
		}
	}

	var before map[string]int64
	src := harness.SourceOf(sys)
	if src != nil {
		before = src.Snapshot()
	}
	hist := telemetry.NewHistogram()
	start := time.Now()
	for i := 0; i < migrations; i++ {
		k := i % n
		m0 := time.Now()
		// The write reactivates the dormant mapping: an acquire crossing
		// whose verification cost is the migration being measured.
		if _, err := threads[k].WriteAt(fds[k], tenantBlock[:], 0); err != nil {
			return StormResult{}, fmt.Errorf("migration %d write: %w", i, err)
		}
		if err := tenants[k].FS().ReleaseInode(ino); err != nil {
			return StormResult{}, fmt.Errorf("migration %d release: %w", i, err)
		}
		hist.Record(time.Since(m0).Nanoseconds())
	}
	res := harness.Result{
		FS: "arckfs+", Workload: "RevocationStorm", Threads: n,
		Ops: int64(migrations), Elapsed: time.Since(start),
	}
	if s := hist.Summary(); s.Count > 0 {
		res.Lat = &s
	}
	if src != nil {
		res.Counters = telemetry.Delta(before, src.Snapshot())
	}
	if err := reg.RetireAll(); err != nil {
		return StormResult{}, fmt.Errorf("retire: %w", err)
	}
	return StormResult{Tenants: n, Migrations: migrations, Result: res}, nil
}
