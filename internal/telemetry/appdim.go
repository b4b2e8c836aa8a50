package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// AppMetric indexes one per-application counter in an AppRow.
type AppMetric int

const (
	// AppOps: operations entered through the LibFS API.
	AppOps AppMetric = iota
	// AppSyscalls: kernel crossings charged to the app, counted by the
	// kernel so involuntary work (lease reclaims) is attributed too.
	AppSyscalls
	// AppFlushes: cache lines the app's threads wrote back.
	AppFlushes
	// AppFences: ordering fences issued by the app's threads.
	AppFences
	// AppNTStores: cache lines the app's threads wrote with non-temporal
	// streaming stores.
	AppNTStores
	// AppAdmitQueued: kernel crossings that queued in the fair-share
	// admission scheduler instead of taking the fast path.
	AppAdmitQueued
	// AppAdmitWaitNS: total nanoseconds the app's crossings spent queued
	// for admission.
	AppAdmitWaitNS

	appMetricCount
)

var appMetricNames = [appMetricCount]string{
	AppOps:         "ops",
	AppSyscalls:    "syscalls",
	AppFlushes:     "flushes",
	AppFences:      "fences",
	AppNTStores:    "ntstores",
	AppAdmitQueued: "admit_queued",
	AppAdmitWaitNS: "admit_wait_ns",
}

// String returns the metric's snapshot key.
func (m AppMetric) String() string {
	if m >= 0 && m < appMetricCount {
		return appMetricNames[m]
	}
	return "app-metric(?)"
}

// AppRow holds one application's attribution counters plus an operation
// latency histogram (fed from sampled spans). All methods are safe on a
// nil row and from any goroutine.
//
// The histogram is allocated on first RecordLatency, not at row
// creation: a histogram is ~15 KiB of buckets, and an idle tenant's row
// must stay within a few hundred bytes for 10k-tenant registries.
type AppRow struct {
	counters [appMetricCount]atomic.Int64
	lat      atomic.Pointer[Histogram]
}

// Add increments metric by n.
func (r *AppRow) Add(m AppMetric, n int64) {
	if r == nil || m < 0 || m >= appMetricCount {
		return
	}
	r.counters[m].Add(n)
}

// Get reads metric.
func (r *AppRow) Get(m AppMetric) int64 {
	if r == nil || m < 0 || m >= appMetricCount {
		return 0
	}
	return r.counters[m].Load()
}

// Latency returns the row's op-latency histogram (nil until the first
// RecordLatency).
func (r *AppRow) Latency() *Histogram {
	if r == nil {
		return nil
	}
	return r.lat.Load()
}

// RecordLatency records one operation latency in nanoseconds, allocating
// the row's histogram on first use.
func (r *AppRow) RecordLatency(ns int64) {
	if r == nil {
		return
	}
	h := r.lat.Load()
	if h == nil {
		r.lat.CompareAndSwap(nil, NewHistogram())
		h = r.lat.Load()
	}
	h.Record(ns)
}

// AppStat is one application's attribution snapshot.
type AppStat struct {
	App         int64           `json:"app"`
	Ops         int64           `json:"ops"`
	Syscalls    int64           `json:"syscalls"`
	Flushes     int64           `json:"flushes"`
	Fences      int64           `json:"fences"`
	NTStores    int64           `json:"ntstores"`
	AdmitQueued int64           `json:"admit_queued,omitempty"`
	AdmitWaitNS int64           `json:"admit_wait_ns,omitempty"`
	Latency     *LatencySummary `json:"latency,omitempty"`
}

// AppDim is the app-keyed dimension of the counter registry: one AppRow
// per application ID, created on first touch. The kernel charges
// crossings into it and each LibFS charges persist traffic, so a snapshot
// ranks tenants by the cost they impose on the shared substrate.
type AppDim struct {
	rows sync.Map // int64 -> *AppRow
}

// NewAppDim creates an empty dimension.
func NewAppDim() *AppDim { return &AppDim{} }

// Row returns (creating if needed) the row for app. Nil-safe: a nil
// dimension returns a nil row, whose methods are no-ops. App 0 is the
// unattributed sentinel — kernel-internal crossings (registration,
// force-release, trust-group edits) charge it — and never materializes
// a row, so the dimension's cardinality is exactly the live tenant set.
func (d *AppDim) Row(app int64) *AppRow {
	if d == nil || app == 0 {
		return nil
	}
	if v, ok := d.rows.Load(app); ok {
		return v.(*AppRow)
	}
	v, _ := d.rows.LoadOrStore(app, &AppRow{})
	return v.(*AppRow)
}

// Add increments app's metric by n.
func (d *AppDim) Add(app int64, m AppMetric, n int64) { d.Row(app).Add(m, n) }

// Evict drops app's row. Registries call it when a tenant departs so the
// dimension's footprint tracks the live tenant count, not every app ID
// ever registered. A racing writer that still holds the old row keeps
// charging into it harmlessly; the next Row(app) creates a fresh one.
func (d *AppDim) Evict(app int64) {
	if d == nil {
		return
	}
	d.rows.Delete(app)
}

// Snapshot returns every row's current counters, sorted by app ID.
func (d *AppDim) Snapshot() []AppStat {
	if d == nil {
		return nil
	}
	var out []AppStat
	d.rows.Range(func(k, v any) bool {
		r := v.(*AppRow)
		st := AppStat{
			App:         k.(int64),
			Ops:         r.Get(AppOps),
			Syscalls:    r.Get(AppSyscalls),
			Flushes:     r.Get(AppFlushes),
			Fences:      r.Get(AppFences),
			NTStores:    r.Get(AppNTStores),
			AdmitQueued: r.Get(AppAdmitQueued),
			AdmitWaitNS: r.Get(AppAdmitWaitNS),
		}
		if h := r.lat.Load(); h != nil {
			if s := h.Summary(); s.Count > 0 {
				st.Latency = &s
			}
		}
		out = append(out, st)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}
