#!/usr/bin/env bash
# The race-detector steps of CI, kept in one place: scripts/ci.sh and
# .github/workflows/ci.yml both run
#
#   bash scripts/race.sh
#
# Stops at the first failing step.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n=== %s ===\n' "$*"; }

step "race (concurrency-sensitive packages)"
go test -race \
  ./internal/harness/ ./internal/telemetry/ ./internal/telemetry/span/ \
  ./internal/kernel/ ./internal/libfs/ ./internal/kv/ ./internal/rcu/ \
  ./internal/htable/ ./internal/pmem/ ./internal/pmalloc/ ./internal/verifier/ \
  ./internal/baseline/

# Packages whose tests drive several goroutines (or, for crashmc, whose
# determinism must not depend on the scheduler) run at more than one core
# count: two concurrency tests shipped red for ten PRs because CI had one
# core.
#
# Then the tests that only collide with real parallelism (and the ones that
# shipped red because CI had one core): the two-app handoff accounting,
# the §4.6 same-app rename window, the kernel shard stress and parse-once
# pin, and the ReleaseAll lock-order
# stress (it holds every inode's locks at once) with the §4.3 interleavings
# it must not reopen, the delegated I/O fan-out (worker goroutines per large
# request), and the lease-miss rebuild and committed-unlink page accounting,
# the attribute sequence lock (on one core a reader has to yield to the
# writer it found inside), two apps' crossings racing on the kernel's
# recycled persist queues, the app rows (persist traffic counted beside the
# delegated write's workers, and crossings), the KV store's readers beside
# its writer and its log replay, two threads of one app missing at once,
# which must share one AcquireBatch, the grace-period drain behind a failed
# grant, two threads refilling one page stripe (no page handed out twice),
# the fixed shadow table's rows across ten thousand registrations, every
# op ending on an epoch boundary, and an acquire and a transfer waiting on
# one held shard lock, and a directory commit clearing dirty bits while
# another app stores to pages of the same bitmap word, and a release
# harvesting the bit of a page a store races it to, and the LibFS inode
# table's stores, deletes and walks beside lock-free loads. A create
# filling the dead slot an unlink on another tail just freed, and lock-free
# lookups racing an rmdir whose directory state a mkdir reuses, run ten
# times over.
step "race at GOMAXPROCS 1, 2, 4"
for p in 1 2 4; do
  GOMAXPROCS=$p go test -race \
    ./internal/core/ ./internal/crashmc/ ./internal/hlock/ ./internal/tenancy/
  GOMAXPROCS=$p go test -race -count=2 \
    -run 'Compact|HandoffChurn|HandoffTurn|Reacquire|UnlinkOfCommitted|ReleaseAllSpan|ReleaseAllLockOrder|TestBug43|TestBug46|ShardStress|ParsesOnce|Delegated|RepeatAcquire|StatNeverTears|StatVsConcurrentWriters|CountedSpin|AcquireGuard|ACLDies|ShardStatsKinds|PageGrantsCross|TestCrossing|InodeRecordCrashAtomic|LookupDuringGrowth|GrowthZeroes|AcquireBatch|TestPrefetch|ConcurrentMissesOneBatch|GrownCommittedFileLeaksNoPages|AllocReclaims|EpochBoundary|ShardWaitSpanEvents|DirtyBits|TestInodeTableConcurrent' \
    ./internal/libfs/ ./internal/kernel/ ./internal/htable/ ./internal/hlock/
  GOMAXPROCS=$p go test -race -count=10 -run 'TestDeadSlotReuseConcurrent|TestSpareDirVsLockFreeReaders' ./internal/libfs/
  GOMAXPROCS=$p go test -race -count=2 -run 'AppRowMatchesDevice|AppStatsCountEveryCrossing' ./internal/core/
  GOMAXPROCS=$p go test -race -count=2 -run 'ConcurrentReaders|WAL' ./internal/kv/
done
