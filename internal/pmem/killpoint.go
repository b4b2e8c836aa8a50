package pmem

// Crash points and race windows.
//
// A device has one observer, the only way a harness stops an execution at
// a named instant. Three kinds of instant reach it by name:
//
//   - every Fence while tracking is enabled, as FenceSite, before the
//     fence makes flushed content durable. The ending epoch's dirty-line
//     state is still enumerable there (DirtyLineStates, CrashImages), and
//     within an epoch the reachable crash states only grow, so observing
//     fences covers the whole execution, epoch by epoch;
//   - every crash site, a Killpoint("name") call inline in the code under
//     test, whether or not tracking is enabled;
//   - every race window, a Killpoint call at an instant a concurrency test
//     widens (the paper's sleep() calls), whether or not tracking is
//     enabled. The windows are unexported constants of the package that
//     reaches them and are not crash sites: KillpointSites leaves them out.
//
// What happens there is the observer's: count hits and cut the Nth
// (typically capturing a crash image and unwinding via panic, which the
// harness recovers), enumerate images, or read counters. With no observer
// an instant costs one field load and a nil check, so sites are safe on
// persist hot paths and inside recovery passes. The observer runs on the
// goroutine that reaches the instant. At a fence and at a crash site it
// must not touch the device (no store, flush or fence). At a race window
// it may block, or run other threads' operations, which reach the
// observer in turn. Set the observer (or clear it with nil) only while
// the device is quiescent; an observer that should fire once gates itself
// on an atomic flag rather than clearing itself.
//
// Race windows (libfs, one constant each): libfs.window.dir-write (§4.3,
// two sites), libfs.window.create-aux-core (§4.4),
// libfs.window.rename-checked (§4.6), libfs.window.file-read-block,
// libfs.window.rmdir-found-empty, and one for each directory-state
// accessor that loads before its guard holds: libfs.window.dir-state-loaded
// (pinned) and libfs.window.dir-state-before-lock (locked). §4.5's
// window is htable.Table.TraverseHook.
//
// Registered crash sites (callers keep this list current; cmd/arckcrash
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

// KillpointSites lists every registered crash site; race windows are not
// among them.
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

// Killpoint reports the named crash site or race window to the device's
// observer.
func (d *Device) Killpoint(site string) {
	if d.obs != nil {
		d.obs(site)
	}
}

// OnSite adapts fn into an observer that runs it at every instant named
// site and ignores the others.
func OnSite(site string, fn func()) func(string) {
	return func(s string) {
		if s == site {
			fn()
		}
	}
}

// OnFence adapts fn into an observer that runs it at every tracked fence
// and ignores the named sites.
func OnFence(fn func()) func(site string) { return OnSite(FenceSite, fn) }
