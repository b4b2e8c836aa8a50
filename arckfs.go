// Package arckfs is a from-scratch Go reproduction of the Trio
// userspace-NVM-file-system architecture, the ArckFS file system built on
// it (Zhou et al., SOSP 2023), and the ArckFS+ enhancements of "Analyzing
// and Enhancing ArckFS" (Jeon et al., SOSP 2025).
//
// A System owns a simulated persistent-memory device, the in-kernel
// access controller, and the trusted integrity verifier. Applications
// attach through Apps (per-application library file systems) and perform
// all data and metadata operations in userspace; the kernel is involved
// only when inode ownership moves between applications, which is when
// metadata integrity is verified.
//
// Two presets reproduce the paper:
//
//   - ModeArckFS is the Trio artifact as shipped, with all six bugs of
//     the paper's Table 1 present;
//   - ModeArckFSPlus applies every patch (the default).
//
// The simulated device models cache-line flushes, persist barriers, and
// power-failure crash states, so the paper's crash-consistency findings
// are reproducible in process; see CrashImage and Recover.
package arckfs

import (
	"arckfs/internal/core"
	"arckfs/internal/costmodel"
	"arckfs/internal/fsapi"
	"arckfs/internal/kernel"
	"arckfs/internal/libfs"
	"arckfs/internal/pmem"
	"arckfs/internal/telemetry"
	"arckfs/internal/telemetry/span"
)

// Mode selects the system preset.
type Mode = core.Mode

const (
	// ModeArckFSPlus is the patched system of the SOSP 2025 paper.
	ModeArckFSPlus = core.ArckFSPlus
	// ModeArckFS is the Trio artifact as shipped (all Table-1 bugs).
	ModeArckFS = core.ArckFS
)

// Re-exported operation types and error values, so callers need only
// this package.
type (
	// Stat describes an inode.
	Stat = fsapi.Stat
	// FD is a per-thread file descriptor.
	FD = fsapi.FD
	// Thread is a per-worker handle; see NewThread.
	Thread = fsapi.Thread
	// Report summarizes what recovery found and repaired.
	Report = kernel.Report
)

// Error values returned by file system operations.
var (
	ErrNotExist     = fsapi.ErrNotExist
	ErrExist        = fsapi.ErrExist
	ErrNotDir       = fsapi.ErrNotDir
	ErrIsDir        = fsapi.ErrIsDir
	ErrNotEmpty     = fsapi.ErrNotEmpty
	ErrPerm         = fsapi.ErrPerm
	ErrNoSpace      = fsapi.ErrNoSpace
	ErrInval        = fsapi.ErrInval
	ErrBusy         = fsapi.ErrBusy
	ErrBusError     = fsapi.ErrBusError
	ErrSegfault     = fsapi.ErrSegfault
	ErrVerification = fsapi.ErrVerification
)

// IsVerificationError reports whether err is an integrity-verifier
// rejection (the kernel applied its corruption policy).
func IsVerificationError(err error) bool { return kernel.IsVerificationError(err) }

// Options configures a System.
type Options struct {
	// Mode selects ArckFS or ArckFS+ (default ArckFS+).
	Mode Mode
	// DevSize is the simulated persistent-memory capacity in bytes
	// (default 256 MiB).
	DevSize int64
	// InodeCap caps the inode table (default 65536).
	InodeCap uint64
	// RealisticCosts charges calibrated latencies for system calls,
	// cache-line flushes, fences, and verification, approximating the
	// relative costs on the paper's Optane testbed. Off, everything is
	// as fast as DRAM allows (the right setting for unit tests).
	RealisticCosts bool
	// CrashTracking records per-cache-line persistence state so
	// CrashImage can materialize power-failure states. It costs memory
	// and time; enable it only for crash experiments.
	CrashTracking bool
	// SpanSampling enables arcktrace causal span tracing: 1 traces every
	// operation, N traces one in N (rounded up to a power of two). 0 (the
	// default) leaves the tracer attached but disabled; Tracer() can flip
	// it on later.
	SpanSampling int
}

// System is a formatted, mounted instance of the Trio architecture.
type System struct {
	sys *core.System
}

// New formats a fresh system.
func New(opts Options) (*System, error) {
	var cost *costmodel.Model
	if opts.RealisticCosts {
		cost = costmodel.Default()
	}
	sys, err := core.NewSystem(core.Config{
		Mode:         opts.Mode,
		DevSize:      opts.DevSize,
		InodeCap:     opts.InodeCap,
		Cost:         cost,
		Tracking:     opts.CrashTracking,
		SpanSampling: opts.SpanSampling,
	})
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Recover mounts a device image (typically from CrashImage), running
// crash recovery and reporting what it repaired.
func Recover(img []byte, opts Options) (*System, *Report, error) {
	var cost *costmodel.Model
	if opts.RealisticCosts {
		cost = costmodel.Default()
	}
	sys, rep, err := core.Recover(img, core.Config{
		Mode:         opts.Mode,
		Cost:         cost,
		Tracking:     opts.CrashTracking,
		SpanSampling: opts.SpanSampling,
	})
	if err != nil {
		return nil, nil, err
	}
	return &System{sys: sys}, rep, nil
}

// Fsck analyzes a device image without modifying it.
func Fsck(img []byte) (*Report, error) {
	dev := pmem.Restore(img, nil)
	return kernel.Fsck(dev, kernel.Options{})
}

// CrashPolicy controls which in-flight writes survive a simulated power
// failure; see the pmem package for semantics.
type CrashPolicy = pmem.CrashPolicy

// Crash policies.
var (
	CrashDropAll    = pmem.CrashDropAll
	CrashPersistAll = pmem.CrashPersistAll
	CrashRandom     = pmem.CrashRandom
)

// CrashImage materializes the durable state a power failure at this
// instant could leave, under policy. Requires CrashTracking.
func (s *System) CrashImage(policy CrashPolicy) []byte {
	return s.sys.Dev.CrashImage(policy)
}

// Image returns a copy of the full volatile device image (a clean
// shutdown).
func (s *System) Image() []byte {
	n := s.sys.Dev.Size()
	img := make([]byte, n)
	s.sys.Dev.Read(0, img)
	return img
}

// Mode returns the preset the system runs.
func (s *System) Mode() Mode { return s.sys.Mode() }

// KernelStats is a snapshot of controller counters.
type KernelStats = kernel.Snapshot

// Stats snapshots the kernel's event counters.
func (s *System) Stats() KernelStats { return s.sys.Ctrl.Stats.Snapshot() }

// ShardStat describes one counted lock of the kernel's sharded control
// plane (a shadow-inode shard or the app table), with its acquisition and
// contention counters.
type ShardStat = kernel.ShardStat

// ShardStats returns the lock counters in a stable order: the shadow
// shards by index, then the app table.
func (s *System) ShardStats() []ShardStat { return s.sys.Ctrl.ShardStats() }

// Telemetry returns the system-wide counter set: pmem persistence
// events, kernel crossings, verifier work units, and LibFS recovery
// paths, all by name (see internal/telemetry).
func (s *System) Telemetry() *telemetry.Set { return s.sys.Telemetry() }

// Span is one traced operation: app, op kind, duration, and the causal
// child events it collected (flushes, fences, kernel crossings, lease
// hits, shard waits) — see internal/telemetry/span.
type Span = span.Span

// SpanTracer samples operations into per-thread span rings.
type SpanTracer = span.Tracer

// FlightRecord is a dump of recently retained spans, written as a JSON
// artifact when an invariant breach or fsck failure is detected.
type FlightRecord = span.FlightRecord

// AppStat is one application's attribution row: operations, kernel
// crossings, persist traffic, and sampled operation latency.
type AppStat = core.AppStat

// Tracer returns the arcktrace span tracer (always attached; enabled per
// Options.SpanSampling or at runtime via its SetEnabled).
func (s *System) Tracer() *SpanTracer { return s.sys.Tracer() }

// Spans returns the currently retained sampled spans, oldest first.
func (s *System) Spans() []*Span { return s.sys.Tracer().Snapshot() }

// SlowestSpans returns up to n retained spans by descending duration.
func (s *System) SlowestSpans(n int) []*Span { return s.sys.Tracer().Slowest(n) }

// AppStats returns the per-application attribution snapshot, sorted by
// app ID.
func (s *System) AppStats() []AppStat { return s.sys.AppStats() }

// AppUsage is one tenant's live quota/usage snapshot: outstanding page
// and inode grants against the installed limits.
type AppUsage = kernel.AppUsage

// Quota bounds one tenant's consumption of the shared substrate (see
// kernel.Quota; zero fields mean unlimited).
type Quota = kernel.Quota

// Usage snapshots every registered application's outstanding grants and
// quota, sorted by app ID (arckshell's `tenants` table).
func (s *System) Usage() []AppUsage { return s.sys.Ctrl.Usage() }

// SetQuota installs (or, with a zero Quota, clears) an application's
// grant and crossing quotas at runtime.
func (s *System) SetQuota(a *App, q Quota) error {
	return s.sys.Ctrl.SetQuota(a.fs.App(), q)
}

// App is one application's library file system.
type App struct {
	fs *libfs.FS
}

// NewApp registers an application and attaches its LibFS.
func (s *System) NewApp() *App {
	return &App{fs: s.sys.NewApp(0, 0)}
}

// NewTrustGroup places the applications in one trust group: inode
// ownership moves among them without verification (§5.4 of the paper).
func (s *System) NewTrustGroup(apps ...*App) error {
	ids := make([]int64, len(apps))
	for i, a := range apps {
		ids[i] = a.fs.App()
	}
	_, err := s.sys.Ctrl.NewTrustGroup(ids...)
	return err
}

// NewThread creates a worker handle pinned to a virtual CPU. A Thread
// must not be shared between goroutines; threads of one App run in
// parallel.
func (a *App) NewThread(cpu int) Thread { return a.fs.NewThread(cpu) }

// Name identifies the file system variant ("arckfs" or "arckfs+").
func (a *App) Name() string { return a.fs.Name() }

// ReleaseAll returns every inode the application holds to the kernel,
// committing newly created inodes in rule-compatible order and running
// integrity verification on everything.
func (a *App) ReleaseAll() error { return a.fs.ReleaseAll() }

// Release returns one inode (by path) to the kernel, verifying it.
func (a *App) Release(path string) error {
	t := a.fs.NewThread(0).(*libfs.Thread)
	defer t.Detach()
	st, err := t.Stat(path)
	if err != nil {
		return err
	}
	return a.fs.ReleaseInode(st.Ino)
}

// Commit verifies path's inode (and any uncommitted ancestors) without
// giving up ownership — Trio's commit operation.
func (a *App) Commit(path string) error {
	t := a.fs.NewThread(0).(*libfs.Thread)
	defer t.Detach()
	return a.fs.CommitInode(t, path)
}

// CreateBatch is an example of Trio's per-application customization: it
// creates every name in names as an empty file under dir, amortizing the
// persistence barriers across the whole batch (two fences total instead
// of two per file) while keeping each entry individually crash-atomic.
// It returns how many files were created before any error.
func (a *App) CreateBatch(t Thread, dir string, names []string) (int, error) {
	lt, ok := t.(*libfs.Thread)
	if !ok {
		return 0, ErrInval
	}
	return lt.CreateBatch(dir, names)
}

var _ fsapi.FS = (*libfs.FS)(nil)
