package tenancy

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"arckfs/internal/core"
	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
)

func newSys(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestIdleTenantFootprint pins the per-idle-tenant heap cost under the
// 8 KiB budget the package documentation promises. The measurement
// includes the spawn crossing (registration) — the honest cost of an
// idle tenant, not just its structs.
func TestIdleTenantFootprint(t *testing.T) {
	const budget = 8192.0
	per, err := MeasureIdleFootprint(2048)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("idle tenant footprint: %.0f B/tenant", per)
	if per >= budget {
		t.Fatalf("idle tenant costs %.0f B, budget is %.0f B", per, budget)
	}
}

// TestIdleFootprintIgnoresPooledGarbage: garbage parked in a sync.Pool
// when the measurement starts must not count against the tenants. A pool
// keeps its contents through one collection, so a measurement that
// collects once before its baseline reads the pool's release as a
// negative footprint. Automatic collection is off so that only the
// measurement's own collections run, as at the repo benchmark's GOGC=400.
func TestIdleFootprintIgnoresPooledGarbage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var pool sync.Pool
	pool.Put(make([]byte, 64<<20))
	per, err := MeasureIdleFootprint(256)
	runtime.KeepAlive(&pool)
	if err != nil {
		t.Fatal(err)
	}
	if per <= 0 {
		t.Fatalf("idle tenant footprint %.0f B/tenant with 64 MiB pooled beforehand; want the tenants' own positive cost", per)
	}
}

// TestTenantLifecycle walks one tenant through the full arc — spawn
// with a quota, create/write/read through a lazily-built thread, retire
// — and checks the teardown leaves no residue: the registry forgets the
// tenant, the kernel's usage table drops the app, its attribution row
// leaves with its LibFS, and the namespace survives for successors.
func TestTenantLifecycle(t *testing.T) {
	sys := newSys(t)
	reg := NewRegistry(sys)

	tn, err := reg.Spawn(kernel.Quota{MaxPages: 1024, MaxInodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sys.Ctrl.QuotaOf(tn.App()); !ok || got.MaxPages != 1024 || got.MaxInodes != 512 {
		t.Fatalf("quota not installed: %+v ok=%v", got, ok)
	}

	th := tn.Thread(0)
	if err := th.Create("/lifecycle"); err != nil {
		t.Fatal(err)
	}
	fd, err := th.Open("/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("written by tenant one")
	if _, err := th.WriteAt(fd, want, 0); err != nil {
		t.Fatal(err)
	}
	if th2 := tn.Thread(0); th2 != th {
		t.Fatal("Thread(0) did not return the cached worker")
	}

	app := tn.App()
	if err := tn.Retire(); err != nil {
		t.Fatal(err)
	}
	if err := tn.Retire(); err != nil {
		t.Fatalf("second Retire not idempotent: %v", err)
	}
	if tn.Thread(0) != nil {
		t.Fatal("retired tenant handed out a worker")
	}
	if reg.Len() != 0 {
		t.Fatalf("registry still holds %d tenants", reg.Len())
	}
	for _, u := range reg.Usage() {
		if u.App == app {
			t.Fatalf("kernel usage still lists retired app %d: %+v", app, u)
		}
	}
	for _, st := range sys.AppStats() {
		if st.App == int64(app) {
			t.Fatalf("attribution row for retired app %d outlived its LibFS", app)
		}
	}

	// The namespace outlives the tenant: a successor reads its file.
	tn2, err := reg.Spawn(kernel.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	th2 := tn2.Thread(0)
	fd2, err := th2.Open("/lifecycle")
	if err != nil {
		t.Fatalf("successor cannot open retired tenant's file: %v", err)
	}
	buf := make([]byte, len(want))
	if _, err := th2.ReadAt(fd2, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Fatalf("read %q, want %q", buf, want)
	}
	if err := reg.RetireAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryChurnRace churns spawn/quota/retire cycles from many
// goroutines at once (run under -race in CI): the registry map, the
// kernel's app table and quota state, and the system's LibFS list (the
// attribution rows) all see concurrent registration and retirement, and
// the test asserts everything drains back to baseline.
func TestRegistryChurnRace(t *testing.T) {
	sys := newSys(t)
	reg := NewRegistry(sys)
	baseline := len(reg.Usage())

	const workers = 8
	cycles := 50
	if testing.Short() {
		cycles = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				tn, err := reg.Spawn(kernel.Quota{MaxPages: int64(256 * (w%4 + 1))})
				if err != nil {
					errs <- fmt.Errorf("worker %d spawn %d: %w", w, i, err)
					return
				}
				// Touch the lazy paths so retirement races against live rows.
				if tn.Thread(w) == nil {
					errs <- fmt.Errorf("worker %d: nil thread", w)
					return
				}
				if err := tn.SetQuota(kernel.Quota{MaxPages: 512}); err != nil {
					errs <- fmt.Errorf("worker %d requota %d: %w", w, i, err)
					return
				}
				if err := tn.Retire(); err != nil {
					errs <- fmt.Errorf("worker %d retire %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("registry holds %d tenants after churn", reg.Len())
	}
	if got := len(reg.Usage()); got != baseline {
		t.Fatalf("kernel usage table holds %d apps after churn, want %d", got, baseline)
	}
	if stats := sys.AppStats(); len(stats) != 0 {
		t.Fatalf("AppStats holds %d rows after churn: %+v", len(stats), stats)
	}
}

// TestSpawnAsCredentials checks SpawnAs threads uid/gid through to the
// LibFS and that a zero quota leaves the tenant unlimited.
func TestSpawnAsCredentials(t *testing.T) {
	sys := newSys(t)
	reg := NewRegistry(sys)
	tn, err := reg.SpawnAs(1000, 1000, kernel.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := sys.Ctrl.QuotaOf(tn.App()); !ok || q != (kernel.Quota{}) {
		t.Fatalf("zero-quota spawn installed %+v ok=%v", q, ok)
	}
	if err := tn.Retire(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredTenantsLeaveNoGoroutines: a tenant that issued delegated I/O
// (libfs.DelegationThreshold and up fans out to worker goroutines) must
// take every one of them with it — the fan-out is per call, so nothing
// keeps a retired tenant's LibFS reachable.
func TestRetiredTenantsLeaveNoGoroutines(t *testing.T) {
	sys := newSys(t)
	reg := NewRegistry(sys)
	start := runtime.NumGoroutine()
	buf := make([]byte, libfs.DelegationThreshold)
	for i := 0; i < 8; i++ {
		tn, err := reg.Spawn(kernel.Quota{})
		if err != nil {
			t.Fatal(err)
		}
		th := tn.Thread(0)
		path := fmt.Sprintf("/big-%d", i)
		if err := th.Create(path); err != nil {
			t.Fatal(err)
		}
		fd, err := th.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.WriteAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		if n, err := th.ReadAt(fd, buf, 0); err != nil || n != len(buf) {
			t.Fatalf("delegated read: %d, %v", n, err)
		}
		if err := tn.Retire(); err != nil {
			t.Fatal(err)
		}
	}
	// A worker signals the join a few instructions before it is gone.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after retiring every tenant, %d before the first spawn", runtime.NumGoroutine(), start)
		}
	}
}

// TestCountersSurviveRetire pins the system counters as monotonic across a
// tenant's whole life: the per-application sums (leases.*, libfs.*, rcu.*,
// syscalls.avoided) must keep a retired tenant's totals, because tools read
// them as deltas. Levels are exempt — they are allowed to fall.
func TestCountersSurviveRetire(t *testing.T) {
	levels := map[string]bool{"rcu.pending": true, "rcu.pending_pages": true}
	sys := newSys(t)
	reg := NewRegistry(sys)
	tn, err := reg.Spawn(kernel.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	th := tn.Thread(0)
	for round := 0; round < 3; round++ {
		name := fmt.Sprintf("/f%d", round)
		if err := th.Create(name); err != nil {
			t.Fatal(err)
		}
		if err := tn.FS().ReleaseAll(); err != nil {
			t.Fatal(err)
		}
		// Back in through the dormant leases, then retire the name through
		// the RCU domain.
		if _, err := th.Stat(name); err != nil {
			t.Fatal(err)
		}
		if err := th.Unlink(name); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Telemetry().Snapshot()
	for _, k := range []string{"leases.hit", "syscalls.avoided", "rcu.reclaimed"} {
		if before[k] == 0 {
			t.Fatalf("the work did not move %s: the test would prove nothing", k)
		}
	}
	if err := tn.Retire(); err != nil {
		t.Fatal(err)
	}
	after := sys.Telemetry().Snapshot()
	for k, v := range before {
		if !levels[k] && after[k] < v {
			t.Errorf("%s fell from %d to %d when the tenant retired", k, v, after[k])
		}
	}
}
