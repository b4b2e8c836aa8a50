#!/usr/bin/env bash
# The whole CI gauntlet (.github/workflows/ci.yml) in one local command:
#
#   bash scripts/ci.sh
#
# Stops at the first failing step. Breach artifacts go to a temporary
# directory that is removed on exit; the repo benchmark's own
# .bench_build/ and benchmark/out/ are gitignored. The per-op cost gate
# (fxmark.TestCostBounds) and the prose docs' budget and citation checks
# (TestProseBudget, TestDocCommandsResolve, TestEveryPackageHasADoc) run in
# the test step.
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

bash scripts/race.sh

step "fuzz the path cursor and the directory verifier for 5 s each (native Go fuzzing; the seed corpora already ran under go test)"
go test -run '^$' -fuzz=FuzzPathCursor -fuzztime=5s ./internal/fsapi/
go test -run '^$' -fuzz=FuzzVerifyDir -fuzztime=5s ./internal/verifier/

step "per-layer Go benchmarks build and run once"
go test -run '^$' -bench . -benchtime 1x . ./internal/libfs/ ./internal/kv/ ./internal/verifier/ ./internal/kernel/

step "arcklint (baseline + runtime budget, suppression audit)"
go run ./cmd/arcklint -baseline scripts/arcklint_baseline.json ./...
go run ./cmd/arcklint -suppressions -strict ./...

step "arckcrash campaign (oracles + strict killpoint sweep)"
go run ./cmd/arckcrash -iters 40 -seed 1 -artifacts "$out/crash-artifacts"

step "breach artifacts written for expected breaches"
test -n "$(ls "$out"/crash-artifacts/arckcrash-missing-fence-* 2>/dev/null)"
test -n "$(ls "$out"/crash-artifacts/arckcrash-lie-* 2>/dev/null)"

step "replay one enumerated and one looped breach"
go run ./cmd/arckcrash -replay "$out/crash-artifacts/arckcrash-reserve-scan-arckfs-seed1-iter0-I3-verified-durable.json"
go run ./cmd/arckcrash -replay "$(ls "$out"/crash-artifacts/arckcrash-reserve-len-* | head -n 1)"

step "flight-recorder artifact (the §4.2 breach carries the marker line's flush)"
go run ./cmd/arckcrash -configs create-commit/arckfs -artifacts "$out/flight"
flight="$out/flight/arckcrash-create-commit-arckfs-seed1-iter0-I2-no-torn-commit.json"
test -s "$flight"
grep -q '"kind": "flush"' "$flight"
go test -run 'TestFlightRecorderCapturesBreach' ./internal/crashmc/

step "crashsim (ArckFS recovers a torn dentry, ArckFS+ none)"
go run ./examples/crashsim

step "repo benchmark module tests"
(cd benchmark && go test ./...)

step "repo benchmark: handoff, 3 s, seed 1 (correct, nothing failed, Recover -> Fsck over compacted directories; at most 31 MiB peak RSS and 128 heap objects an op)"
result="$(bash benchmark/run.sh --workload handoff --seed 1 --seconds 3 --trace 0 | tail -n 1)"
echo "$result"
echo "$result" | grep -q '"correct":true'
echo "$result" | grep -q '"failed":0,'
rss="$(echo "$result" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.eE+-]*\).*/\1/p')"
awk -v r="$rss" 'BEGIN { if (r == "" || r + 0 > 31) { print "handoff peak_rss_mb " r ", want at most 31" > "/dev/stderr"; exit 1 } }'
allocs="$(echo "$result" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.eE+-]*\).*/\1/p')"
awk -v a="$allocs" 'BEGIN { if (a == "" || a + 0 > 128) { print "handoff allocs_per_op " a ", want at most 128" > "/dev/stderr"; exit 1 } }'

step "repo benchmark: meta_churn, 3 s, seed 1 (correct, nothing failed, at most 0.45 heap objects an op and 42 MiB peak RSS)"
result="$(bash benchmark/run.sh --workload meta_churn --seed 1 --seconds 3 --trace 0 | tail -n 1)"
echo "$result"
echo "$result" | grep -q '"correct":true'
echo "$result" | grep -q '"failed":0,'
allocs="$(echo "$result" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.eE+-]*\).*/\1/p')"
awk -v a="$allocs" 'BEGIN { if (a == "" || a + 0 > 0.45) { print "meta_churn allocs_per_op " a ", want at most 0.45" > "/dev/stderr"; exit 1 } }'
rss="$(echo "$result" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.eE+-]*\).*/\1/p')"
awk -v r="$rss" 'BEGIN { if (r == "" || r + 0 > 42) { print "meta_churn peak_rss_mb " r ", want at most 42" > "/dev/stderr"; exit 1 } }'

step "repo benchmark: kv_app, 1 s, seed 1 (correct, nothing failed, at most 1.0 heap objects an op)"
result="$(bash benchmark/run.sh --workload kv_app --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$result"
echo "$result" | grep -q '"correct":true'
echo "$result" | grep -q '"failed":0,'
allocs="$(echo "$result" | sed -n 's/.*"allocs_per_op":{"value":\([0-9.eE+-]*\).*/\1/p')"
awk -v a="$allocs" 'BEGIN { if (a == "" || a + 0 > 1.0) { print "kv_app allocs_per_op " a ", want at most 1.0" > "/dev/stderr"; exit 1 } }'

step "repo benchmark: data_rw, 1 s, seed 1 (correct, nothing failed, at most 110 MiB peak RSS)"
result="$(bash benchmark/run.sh --workload data_rw --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$result"
echo "$result" | grep -q '"correct":true'
echo "$result" | grep -q '"failed":0,'
rss="$(echo "$result" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.eE+-]*\).*/\1/p')"
awk -v r="$rss" 'BEGIN { if (r == "" || r + 0 > 110) { print "data_rw peak_rss_mb " r ", want at most 110" > "/dev/stderr"; exit 1 } }'

printf '\nci.sh: all steps passed\n'
