package pmem

import "sync/atomic"

// Whitebox killpoints.
//
// A killpoint is a named code site at which a crash-loop orchestrator
// (cmd/arckcrash) can cut an execution deterministically: the site calls
// Killpoint("name") inline, and a harness arms one (site, hit-count)
// pair per run. When the armed site's Nth hit occurs, the registered
// function runs on the hitting goroutine — typically capturing a crash
// image and unwinding via panic, which the orchestrator recovers.
//
// The unarmed cost is one atomic pointer load and a nil check, so the
// markers are safe on persist hot paths (commit-marker stores, batch
// drains) and inside recovery passes. Exactly one killpoint is armed at
// a time; arming is not synchronized with concurrent hits, so harnesses
// arm before starting the workload and disarm after unwinding.
//
// Registered sites (callers keep this list current; cmd/arckcrash
// -killpoints prints it):
//
//	libfs.create.marker  — after a dentry commit-marker store, before
//	                       the operation's final persist barrier
//	libfs.compact.swap   — inside a release-time dentry-log compaction,
//	                       after the stores that splice dead pages out,
//	                       before the fence that makes them durable
//	pmem.batch.barrier   — entry of Batch.Barrier, before the queue
//	                       drains and the fence issues
//	pmem.batch.drain     — entry of Batch.Drain with lines queued
//	kernel.recover.pass  — end of each kernel.Mount recovery pass
type killArm struct {
	site string
	left atomic.Int64
	fn   func(site string)
}

var armedKill atomic.Pointer[killArm]

// KillpointSites lists every registered Killpoint call site.
func KillpointSites() []string {
	return []string{
		"libfs.create.marker",
		"libfs.compact.swap",
		"pmem.batch.barrier",
		"pmem.batch.drain",
		"kernel.recover.pass",
	}
}

// Killpoint marks a named kill site. When the site is armed and this is
// its configured hit, the armed function runs synchronously on the
// calling goroutine.
func Killpoint(site string) {
	a := armedKill.Load()
	if a == nil || a.site != site {
		return
	}
	if a.left.Add(-1) == 0 {
		a.fn(site)
	}
}

// ArmKillpoint arms site to fire fn on its hit-th hit (1 = next hit).
// Any previously armed killpoint is replaced.
func ArmKillpoint(site string, hit int, fn func(site string)) {
	if hit < 1 {
		hit = 1
	}
	a := &killArm{site: site, fn: fn}
	a.left.Store(int64(hit))
	armedKill.Store(a)
}

// DisarmKillpoint removes the armed killpoint, if any.
func DisarmKillpoint() { armedKill.Store(nil) }
