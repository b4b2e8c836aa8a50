// Package crashmc is the dynamic crash-consistency checker for the LibFS
// persist schedule, and the engine behind cmd/arckcrash. Where arcklint
// (internal/analysis) finds ordering bugs statically from the shape of
// the code, crashmc finds them dynamically, the way the
// crash-consistency literature says the long tail must be found: run a
// real workload, stop at persist-relevant points, materialize crash
// images the persistency model admits there, and run recovery against
// each one.
//
// # One engine, two drivers
//
// The rig (rig.go) boots the system under test — device, kernel, one
// LibFS per tenant, a tracer, optionally a lying device — runs a warmup
// and its hidden release, and then executes the tracked ops while an
// Oracle (model.go) follows the namespace. It owns the rules both
// drivers share: which fences are LibFS persist points, how an image is
// built, what a breach records. Which lines are kernel-hardened is
// layout.Geometry.Hardened.
//
// A Config row with scripted Ops runs under the enumerate driver
// (enumerate.go): every fence the workload issues — plus a checkpoint
// after each operation — is an observation point, and at each one the
// driver reads the device's dirty-line state: each line with V
// unpersisted store versions may independently persist any prefix of
// them, so the crash-state space is the product of (V+1) over all dirty
// lines. pmem.Device.CrashImages enumerates small spaces exhaustively,
// larger ones by adversarial corners plus a seeded sample. A violating
// image is shrunk twice — its persisted-line assignment greedily while
// the device is still live, its op schedule by re-running sub-schedules
// — into a breach small enough to read.
//
// A row without Ops runs under the loop driver (loop.go): each iteration
// is fully determined by (Config, iteration seed). A seeded generator
// (workload.go) grows a randomized workload against an oracle mirror;
// execution is killed at a random fence, at the Nth hit of a named
// whitebox killpoint ((*pmem.Device).Killpoint sites at commit-marker
// stores, batch drains, log compactions), at a post-op checkpoint, or at
// a fence and then again at a recovery pass of the repair mount; one
// image is built under a seeded line policy and recovered. Fences and
// sites reach the driver through one hook, the device's observer
// (pmem.Device.SetObserver); the loop's own observer counts a site's
// hits. With Faults set the device additionally lies per a seeded
// pmem.FaultPlan — dropped flushes, lying fences, torn lines — exposing
// crash states honest enumeration can never reach.
// Iterations whose kill never fires, and the baselines (nova, pmfs,
// kucofs), which have no recovery scan, walk the live namespace and
// compare it to the oracle instead (L1).
//
// # Invariants
//
// Every image is checked with the real recovery path and four named
// invariants (see CheckImage): I1 recovery succeeds, I2 no committed
// dentry record is torn (the §4.2 signature), I3 every kernel-verified
// path still resolves (the Trio durability contract: only released,
// verified state may be asserted durable — the Oracle tracks exactly
// that set), and I4 repair is idempotent (a re-check after repair is
// clean).
//
// # Trusted (kernel-hardened) regions
//
// The superblock and the kernel's shadow inode table always persist
// fully in every image. A kernel crossing queues all of its shadow and
// inode-table writes and persists them under one fence (a second only
// where a batch goes back from files to a directory), so its records
// are unordered against each other until that fence; each record is one
// cache line and so persists whole. Losing the kernel's writes would fail
// recovery by construction and say nothing about LibFS ordering, which
// is the property under test — the kernel is assumed correct throughout
// this reproduction. (core.TestCrossingAtomicByEnumeration checks the
// cross-record order a crossing relaxes.) For the same reason fences
// inside Release (the kernel verification protocol) are not crash points,
// except a log compaction's splice fence — the device's next fence after
// the libfs.compact.swap site — which is the LibFS's own schedule.
//
// # Breaches
//
// Every violation is one Breach record, written as a JSON artifact into
// the shared artifact directory ($ARCK_FLIGHT_DIR, default artifacts/)
// with the run's flight-recorder spans; Replay re-runs it from the
// artifact alone. Campaign returns the standard rows, including the two
// acceptance oracles: the §4.2 missing-fence bug (I2) and the
// reserveDentry record-length hole arcklint found in PR 3 (I3), both
// rediscovered by both drivers from their bug flags alone, with the
// patched ArckFS+ reporting nothing under the same budgets.
package crashmc
