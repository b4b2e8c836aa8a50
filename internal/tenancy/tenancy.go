// Package tenancy manages populations of library file systems sharing
// one kernel Controller: an application registry that spins tenants up
// and down by the thousand. It is the serving-side complement of the
// single-app benchmarks — the interesting questions at 10k tenants are
// not per-op latency but per-idle-tenant footprint and quota
// containment, and the registry is the harness those are measured
// against.
//
// Footprint discipline: an idle tenant is a registered app plus a LibFS
// whose expensive state is all lazily allocated — directory hash tables
// appear when a directory is first walked, the per-thread persist
// batcher's dedup map on the first flush, the span tracer's ring on the
// first recorded span, the LibFS's latency histogram on the first sampled
// latency, and worker threads themselves on first use (Tenant.Thread).
// What remains is the FS shell, its RCU domain, and the kernel's
// per-app record: a few hundred bytes, pinned well under the 8 KiB
// budget by TestIdleTenantFootprint.
package tenancy

import (
	"fmt"
	"runtime"
	"sync"

	"arckfs/internal/core"
	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
)

// Tenant is one live application slot: the registered app, its LibFS,
// and a lazily-built per-CPU worker cache.
type Tenant struct {
	reg *Registry
	fs  *libfs.FS

	mu      sync.Mutex
	threads map[int]*libfs.Thread
	retired bool
}

// FS returns the tenant's library file system.
func (t *Tenant) FS() *libfs.FS { return t.fs }

// App returns the tenant's kernel application ID.
func (t *Tenant) App() kernel.AppID { return t.fs.App() }

// Thread returns the tenant's worker handle for cpu, creating it on
// first use. Lazy creation is what keeps an idle tenant from paying for
// a persist batcher and tracer lane per CPU; a retired tenant returns
// nil.
func (t *Tenant) Thread(cpu int) fsapi.Thread {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.retired {
		return nil
	}
	th := t.threads[cpu]
	if th == nil {
		th = t.fs.NewThread(cpu).(*libfs.Thread)
		if t.threads == nil {
			t.threads = make(map[int]*libfs.Thread)
		}
		t.threads[cpu] = th
	}
	return th
}

// SetQuota installs (or clears) the tenant's quota at runtime.
func (t *Tenant) SetQuota(q kernel.Quota) error {
	return t.reg.sys.Ctrl.SetQuota(t.fs.App(), q)
}

// Retire tears the tenant down: owned inodes are released back to the
// kernel, worker threads detach (returning their tracer lanes), pooled
// page grants go back to the allocator, and the app unregisters —
// which force-releases anything a voluntary release missed and evicts
// the tenant's scheduler and attribution state. The caller must have
// quiesced the tenant's own use of its threads first. Idempotent.
func (t *Tenant) Retire() error {
	t.mu.Lock()
	if t.retired {
		t.mu.Unlock()
		return nil
	}
	t.retired = true
	threads := t.threads
	t.threads = nil
	t.mu.Unlock()

	// Voluntary release first: it walks the mount table depth-first so
	// the kernel sees clean child-before-parent releases instead of the
	// force-release sweep.
	err := t.fs.ReleaseAll()
	for _, th := range threads {
		th.Detach()
	}
	t.fs.ReturnGrants()
	if rerr := t.reg.retire(t); err == nil {
		err = rerr
	}
	return err
}

// Registry tracks the live tenant population of one system.
type Registry struct {
	sys *core.System

	mu      sync.Mutex
	tenants map[kernel.AppID]*Tenant
}

// NewRegistry creates an empty registry over sys.
func NewRegistry(sys *core.System) *Registry {
	return &Registry{sys: sys, tenants: make(map[kernel.AppID]*Tenant)}
}

// System returns the underlying system.
func (r *Registry) System() *core.System { return r.sys }

// Spawn registers a new tenant (uid/gid 0) and installs q as its quota;
// a zero Quota skips the extra crossing and leaves the tenant
// unlimited.
func (r *Registry) Spawn(q kernel.Quota) (*Tenant, error) {
	return r.SpawnAs(0, 0, q)
}

// SpawnAs registers a new tenant under the given credentials.
func (r *Registry) SpawnAs(uid, gid uint32, q kernel.Quota) (*Tenant, error) {
	fs := r.sys.NewApp(uid, gid)
	if q != (kernel.Quota{}) {
		if err := r.sys.Ctrl.SetQuota(fs.App(), q); err != nil {
			return nil, fmt.Errorf("tenancy: quota for fresh app %d: %w", fs.App(), err)
		}
	}
	t := &Tenant{reg: r, fs: fs}
	r.mu.Lock()
	r.tenants[fs.App()] = t
	r.mu.Unlock()
	return t, nil
}

// retire removes t from the live set and unregisters its app.
func (r *Registry) retire(t *Tenant) error {
	r.mu.Lock()
	delete(r.tenants, t.fs.App())
	r.mu.Unlock()
	return r.sys.RetireApp(t.fs)
}

// Len returns the live tenant count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// Tenant returns the live tenant for app, or nil.
func (r *Registry) Tenant(app kernel.AppID) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[app]
}

// RetireAll retires every live tenant, returning the first error.
func (r *Registry) RetireAll() error {
	r.mu.Lock()
	live := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		live = append(live, t)
	}
	r.mu.Unlock()
	var first error
	for _, t := range live {
		if err := t.Retire(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Usage snapshots per-tenant outstanding grants and quotas from the
// kernel (arckshell's `tenants` table renders this).
func (r *Registry) Usage() []kernel.AppUsage {
	return r.sys.Ctrl.Usage()
}

// MeasureIdleFootprint boots a fresh system, spawns n idle tenants, and
// returns the resident heap bytes each one cost: the number
// EXPERIMENTS.md's "Tenant scaling" reports against the <8 KiB/tenant
// budget. The spawn crossing itself (registration) is included — that is
// the honest cost of an idle tenant, not just its structs.
func MeasureIdleFootprint(n int) (bytesPerTenant float64, err error) {
	if n <= 0 {
		return 0, fmt.Errorf("tenancy: need n > 0, got %d", n)
	}
	sys, err := core.NewSystem(core.Config{DevSize: 64 << 20})
	if err != nil {
		return 0, err
	}
	reg := NewRegistry(sys)
	// Twice: a sync.Pool keeps what it holds through one collection (its
	// victim cache), and pooled garbage the collection after the spawns
	// frees would be subtracted from the tenants' cost.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	tenants := make([]*Tenant, 0, n)
	for i := 0; i < n; i++ {
		t, serr := reg.Spawn(kernel.Quota{})
		if serr != nil {
			return 0, serr
		}
		tenants = append(tenants, t)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	runtime.KeepAlive(tenants)
	return per, nil
}
