package pmem

// Crash points.
//
// A device has one observer, the only way a harness stops an execution at
// a persistence-relevant instant. Two kinds of instant reach it by name:
//
//   - every Fence while tracking is enabled, as FenceSite, before the
//     fence makes flushed content durable. The ending epoch's dirty-line
//     state is still enumerable there (DirtyLineStates, CrashImages), and
//     within an epoch the reachable crash states only grow, so observing
//     fences covers the whole execution, epoch by epoch;
//   - every named whitebox site, a Killpoint("name") call inline in the
//     code under test, whether or not tracking is enabled.
//
// What happens there is the observer's: count hits and cut the Nth
// (typically capturing a crash image and unwinding via panic, which the
// harness recovers), enumerate images, or read counters. With no observer
// a site costs one field load and a nil check, so sites are safe on
// persist hot paths and inside recovery passes. The observer runs on the
// goroutine that reaches the instant and must not store, flush or fence
// on this device; set it (or clear it with nil) only while the device is
// quiescent.
//
// Registered sites (callers keep this list current; cmd/arckcrash
// -killpoints prints it):
//
//	libfs.create.marker  — after a dentry commit-marker store, before
//	                       the operation's final persist barrier
//	libfs.compact.swap   — inside a release-time dentry-log compaction,
//	                       after the stores that splice dead pages out,
//	                       before the fence that makes them durable (the
//	                       device's next fence)
//	pmem.batch.barrier   — entry of Batch.Barrier, before the queue
//	                       drains and the fence issues
//	pmem.batch.drain     — entry of Batch.Drain with lines queued
//	kernel.recover.pass  — end of each kernel.Mount recovery pass

// FenceSite is the site a tracked Fence reports to the observer.
const FenceSite = "fence"

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

// SetObserver registers fn as the device's observer (nil clears it).
func (d *Device) SetObserver(fn func(site string)) { d.obs = fn }

// Killpoint reports the named whitebox site to the device's observer.
func (d *Device) Killpoint(site string) {
	if d.obs != nil {
		d.obs(site)
	}
}

// OnFence adapts fn into an observer that runs it at every tracked fence
// and ignores the named sites.
func OnFence(fn func()) func(site string) {
	return func(site string) {
		if site == FenceSite {
			fn()
		}
	}
}
