#!/usr/bin/env bash
# The whole CI gauntlet (.github/workflows/ci.yml) in one local command:
#
#   bash scripts/ci.sh
#
# Stops at the first failing step. Breach artifacts go to a temporary
# directory that is removed on exit; the repo benchmark's own
# .bench_build/ and benchmark/out/ are gitignored. The per-op cost gate
# (fxmark.TestCostBounds) runs in the test step.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
step() { printf '\n=== %s ===\n' "$*"; }

step gofmt
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "files need gofmt:" >&2
  echo "$unformatted" >&2
  exit 1
fi

step "CHANGES.md (last entry at most 600 characters; the detail goes in the commit)"
n="$(tail -n 1 CHANGES.md | tr -d '\n' | wc -m)"
if [ "$n" -gt 600 ]; then
  echo "CHANGES.md: the last entry is $n characters" >&2
  exit 1
fi

step vet;   go vet ./...
step build; go build ./...
step test;  go test ./...

step "race (concurrency-sensitive packages)"
go test -race \
  ./internal/harness/ ./internal/telemetry/ ./internal/telemetry/span/ \
  ./internal/kernel/ ./internal/libfs/ ./internal/kv/ ./internal/rcu/ \
  ./internal/htable/ ./internal/pmem/ ./internal/pmalloc/ ./internal/verifier/ \
  ./internal/baseline/

step "race at GOMAXPROCS 1, 2, 4"
for p in 1 2 4; do
  GOMAXPROCS=$p go test -race \
    ./internal/core/ ./internal/crashmc/ ./internal/hlock/ ./internal/tenancy/
  GOMAXPROCS=$p go test -race -count=2 \
    -run 'Compact|HandoffChurn|HandoffTurn|Reacquire|UnlinkOfCommitted|ReleaseAllSpan|ReleaseAllLockOrder|TestBug43|TestBug46|ShardStress|ParsesOnce|SetRef|Delegated|RepeatAcquire|StatNeverTears|StatVsConcurrentWriters|CountedSpin|AcquireGuard|ACLDies|ShardStatsKinds|PageGrantsCross|TestCrossing|InodeRecordCrashAtomic|LookupDuringGrowth|GrowthZeroes|AcquireBatch|TestPrefetch|ConcurrentMissesOneBatch|GrownCommittedFileLeaksNoPages|AllocReclaims|EpochBoundary' \
    ./internal/libfs/ ./internal/kernel/ ./internal/htable/ ./internal/hlock/
  GOMAXPROCS=$p go test -race -count=2 -run AppRowMatchesDevice ./internal/core/
  GOMAXPROCS=$p go test -race -count=2 -run 'ConcurrentReaders|WAL' ./internal/kv/
done

step "fuzz the path cursor for 5 s (native Go fuzzing; the seed corpus already ran under go test)"
go test -run '^$' -fuzz=FuzzPathCursor -fuzztime=5s ./internal/fsapi/

step "per-layer Go benchmarks build and run once"
go test -run '^$' -bench . -benchtime 1x ./internal/libfs/ ./internal/kv/ ./internal/verifier/ ./internal/kernel/

step "arcklint (baseline + runtime budget, suppression audit, package docs)"
go run ./cmd/arcklint -baseline scripts/arcklint_baseline.json ./...
go run ./cmd/arcklint -suppressions -strict ./...
sh scripts/check_pkg_docs.sh

step "arckcrash campaign (oracles + strict killpoint sweep)"
go run ./cmd/arckcrash -iters 40 -seed 1 -artifacts "$out/crash-artifacts"

step "repo benchmark module tests"
(cd benchmark && go test ./...)

printf '\nci.sh: all steps passed\n'
