// Package core assembles the complete Trio system: the simulated
// persistent-memory device, the in-kernel access controller, the trusted
// integrity verifier, and per-application library file systems. It is the
// paper's subject in one box, with presets for ArckFS (the Trio artifact,
// all six Table-1 bugs present) and ArckFS+ (all patches applied).
package core

import (
	"sort"
	"sync"

	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
	"arckfs/internal/verifier"
)

// Mode selects the system preset.
type Mode int

const (
	// ArckFSPlus is the patched system of the paper (default).
	ArckFSPlus Mode = iota
	// ArckFS is the Trio artifact as shipped: the original verifier plus
	// all six LibFS bugs.
	ArckFS
)

func (m Mode) String() string {
	if m == ArckFS {
		return "arckfs"
	}
	return "arckfs+"
}

// Config describes a system instance.
type Config struct {
	Mode Mode
	// DevSize is the device capacity in bytes (default 256 MiB).
	DevSize int64
	// Cost is the latency model; nil charges nothing.
	Cost *costmodel.Model
	// InodeCap is the format's inode table capacity (default 1<<16).
	InodeCap uint64
	// Bugs, when non-nil, overrides the Mode's bug preset (for per-bug
	// ablation).
	Bugs *libfs.Bugs
	// Tracking enables pmem crash tracking from the moment after format.
	Tracking bool
	// SpanSampling enables arcktrace causal span tracing from boot: 1
	// traces every operation, N traces one in N (rounded up to a power of
	// two). 0 (the default) leaves the tracer attached but disabled —
	// tools can still flip it on at runtime via System.Tracer().
	SpanSampling int
}

func (c *Config) fill() {
	if c.DevSize == 0 {
		c.DevSize = 256 << 20
	}
}

func (c *Config) verifierMode() verifier.Mode {
	if c.Mode == ArckFS {
		return verifier.Original
	}
	return verifier.Enhanced
}

func (c *Config) bugs() libfs.Bugs {
	if c.Bugs != nil {
		return *c.Bugs
	}
	if c.Mode == ArckFS {
		return libfs.BugsAll
	}
	return libfs.BugsNone
}

// System is one mounted Trio instance.
type System struct {
	cfg  Config
	Dev  *pmem.Device
	Ctrl *kernel.Controller

	tel    *telemetry.Set
	tracer *span.Tracer
	appsMu sync.Mutex
	apps   []*libfs.FS
	// sums are the per-application counters the telemetry set adds up
	// (sumApps); RetireApp folds a retiring LibFS's totals into them.
	sums []*appSum
}

// appSum is one LibFS counter summed over every application: the live
// ones are read when the gauge is, the retired ones' final values are
// kept in retired (under appsMu) so the gauge never runs backwards.
type appSum struct {
	counter func(*libfs.FS) int64
	retired int64
}

// newTracer builds the system tracer from the config: always attached
// (so runtime enablement works), enabled only when SpanSampling is set.
func (c *Config) newTracer() *span.Tracer {
	every := c.SpanSampling
	if every <= 0 {
		every = span.DefaultSampleEvery
	}
	tr := span.New(span.DefaultRingCap, every)
	tr.SetEnabled(c.SpanSampling > 0)
	return tr
}

// initTelemetry assembles the system-wide counter set: device
// persistence events, kernel crossings, verifier work, and LibFS
// recovery paths (summed over every attached application).
func (s *System) initTelemetry() {
	s.tel = telemetry.NewSet()
	s.Dev.RegisterTelemetry(s.tel)
	s.Ctrl.RegisterTelemetry(s.tel)
	s.tel.Gauge("libfs.remaps", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.Remaps.Load() }))
	s.tel.Gauge("libfs.reacquires", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.Reacquires.Load() }))
	s.tel.Gauge("libfs.stale_reads", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.StaleReads.Load() }))
	// Each application's RCU domain: what is queued behind a grace period
	// now, and the grace periods run and objects reclaimed so far.
	s.tel.Gauge("rcu.pending", s.sumLive(func(fs *libfs.FS) int64 { return int64(fs.Domain().Pending()) }))
	s.tel.Gauge("rcu.grace_periods", s.sumApps(func(fs *libfs.FS) int64 { return fs.Domain().GracePeriods() }))
	s.tel.Gauge("rcu.reclaimed", s.sumApps(func(fs *libfs.FS) int64 { return fs.Domain().Reclaimed() }))
	// Release-time dentry-log compactions and the dead record slots they
	// dropped (libfs/compact.go).
	s.tel.Gauge("libfs.dir_compactions", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.DirCompactions.Load() }))
	s.tel.Gauge("libfs.dir_compacted_slots", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.DirCompactedSlots.Load() }))
	// "syscalls" is the cross-system comparable name: the baselines
	// expose theirs under the same key.
	//arcklint:allow counterreg every system meters "syscalls" in its own private Set so bench tooling reads one cross-system key
	s.tel.Gauge("syscalls", s.Ctrl.Stats.Syscalls.Load)
	s.tel.Gauge("leases.hit", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.LeaseHits.Load() }))
	s.tel.Gauge("leases.miss", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.LeaseMisses.Load() }))
	// "syscalls.avoided" is the companion of "syscalls": crossings the
	// grant leases elided, summed across applications.
	s.tel.Gauge("syscalls.avoided", s.sumApps(func(fs *libfs.FS) int64 { return fs.Stats.SyscallsAvoided.Load() }))
	// "span.recorded" counts spans the arcktrace sampler committed to the
	// per-thread rings; fxmark.TestCostBounds pins it at 0 per op while
	// tracing is disabled.
	s.tel.Gauge("span.recorded", s.tracer.Recorded)
}

// sumApps returns a gauge that sums one LibFS counter over every
// application the system has had, retired ones included.
func (s *System) sumApps(counter func(*libfs.FS) int64) func() int64 {
	sum := &appSum{counter: counter}
	s.sums = append(s.sums, sum)
	return s.sumGauge(sum)
}

// sumLive is sumApps for a level (rcu.pending): attached applications
// only, because what a retired one had queued is not queued any more.
func (s *System) sumLive(level func(*libfs.FS) int64) func() int64 {
	return s.sumGauge(&appSum{counter: level})
}

func (s *System) sumGauge(sum *appSum) func() int64 {
	return func() int64 {
		s.appsMu.Lock()
		defer s.appsMu.Unlock()
		n := sum.retired
		for _, fs := range s.apps {
			n += sum.counter(fs)
		}
		return n
	}
}

// Telemetry returns the system-wide counter set.
func (s *System) Telemetry() *telemetry.Set { return s.tel }

// NewSystem formats a fresh device and boots the kernel side.
func NewSystem(cfg Config) (*System, error) {
	cfg.fill()
	dev := pmem.New(cfg.DevSize, cfg.Cost)
	ctrl, err := kernel.Format(dev, kernel.Options{
		Mode:     cfg.verifierMode(),
		Cost:     cfg.Cost,
		InodeCap: cfg.InodeCap,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Tracking {
		dev.EnableTracking()
	}
	s := &System{cfg: cfg, Dev: dev, Ctrl: ctrl, tracer: cfg.newTracer()}
	s.initTelemetry()
	return s, nil
}

// Recover mounts an existing device image (e.g. a crash image produced by
// pmem.Device.CrashImage), running recovery and returning its report.
func Recover(img []byte, cfg Config) (*System, *kernel.Report, error) {
	cfg.fill()
	dev := pmem.Restore(img, cfg.Cost)
	// Recovery itself is traced: the mount runs under an OpRecover span
	// whose child events are the per-pass timings the kernel reports.
	tr := cfg.newTracer()
	rl := tr.NewLocal()
	sp := rl.Begin(fsapi.OpRecover, 0)
	var sink telemetry.SpanSink
	if sp != nil {
		sink = sp
	}
	ctrl, rep, err := kernel.Mount(dev, kernel.Options{
		Mode: cfg.verifierMode(),
		Cost: cfg.Cost,
		Span: sink,
	}, true)
	rl.End(sp, err)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Tracking {
		dev.EnableTracking()
	}
	s := &System{cfg: cfg, Dev: dev, Ctrl: ctrl, tracer: tr}
	s.initTelemetry()
	return s, rep, nil
}

// NewApp registers an application and attaches a LibFS for it.
func (s *System) NewApp(uid, gid uint32) *libfs.FS {
	app := s.Ctrl.RegisterApp(uid, gid)
	fs := libfs.New(s.Ctrl, app, libfs.Options{
		Bugs: s.cfg.bugs(),
		Cost: s.cfg.Cost,
	})
	fs.SetTelemetry(s.tel)
	fs.SetTracer(s.tracer)
	s.appsMu.Lock()
	s.apps = append(s.apps, fs)
	s.appsMu.Unlock()
	return fs
}

// RetireApp tears one application down: the LibFS leaves the system's
// telemetry aggregation (its counter totals stay, folded into the retired
// sums) and with it AppStats, so long-lived systems spinning tenants up and
// down hold rows for live tenants only; then the kernel unregisters the
// app (force-releasing owned inodes and reclaiming every outstanding
// grant). The caller should stop using fs (and its threads) first;
// tenancy.Registry wraps the full quiesce-then-retire sequence.
func (s *System) RetireApp(fs *libfs.FS) error {
	s.appsMu.Lock()
	for i, x := range s.apps {
		if x == fs {
			s.apps = append(s.apps[:i], s.apps[i+1:]...)
			for _, sum := range s.sums {
				sum.retired += sum.counter(fs)
			}
			break
		}
	}
	s.appsMu.Unlock()
	return s.Ctrl.UnregisterApp(fs.App())
}

// Mode returns the configured preset.
func (s *System) Mode() Mode { return s.cfg.Mode }

// Tracer returns the system's arcktrace span tracer (always non-nil).
func (s *System) Tracer() *span.Tracer { return s.tracer }

// AppStat is one application's attribution row, read off its LibFS's
// Stats: operations, the kernel crossings the LibFS made, persist
// traffic, and sampled operation latency.
type AppStat struct {
	App      int64                     `json:"app"`
	Ops      int64                     `json:"ops"`
	Syscalls int64                     `json:"syscalls"`
	Flushes  int64                     `json:"flushes"`
	Fences   int64                     `json:"fences"`
	NTStores int64                     `json:"ntstores"`
	Latency  *telemetry.LatencySummary `json:"latency,omitempty"`
}

// AppStats returns one row per live application, sorted by app ID.
func (s *System) AppStats() []AppStat {
	s.appsMu.Lock()
	defer s.appsMu.Unlock()
	out := make([]AppStat, 0, len(s.apps))
	for _, fs := range s.apps {
		st := &fs.Stats
		row := AppStat{
			App:      fs.App(),
			Ops:      st.Ops.Load(),
			Syscalls: st.Syscalls.Load(),
			Flushes:  st.Flushes.Load(),
			Fences:   st.Fences.Load(),
			NTStores: st.NTStores.Load(),
		}
		if h := fs.Latency(); h != nil {
			if sum := h.Summary(); sum.Count > 0 {
				row.Latency = &sum
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}
