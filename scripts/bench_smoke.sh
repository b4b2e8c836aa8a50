#!/usr/bin/env bash
# The repo benchmark's smoke gates (BENCHMARK.json), kept in one place:
# scripts/ci.sh and .github/workflows/ci.yml both run
#
#   bash scripts/bench_smoke.sh
#
# The benchmark module's own tests, then four short runs at seed 1. Each
# result line must be correct with nothing failed, and the named metrics
# must stay at or under their bounds:
#
# - handoff, 3 s: the kernel's workload. The post-run Image -> Recover x5
#   -> Fsck -> oracle check runs over directories the final ReleaseAll
#   compacted. A lease miss rebuilds a directory into the state the
#   previous rebuild retired, and a verification merges its entries into
#   the spare view's: about 19 MiB peak RSS and 119 heap objects an op
#   (36 MiB and 136 when each made new ones; 27 MiB while a format
#   zeroed its tables).
# - meta_churn, 3 s: create, open, stat, rename and unlink allocate only
#   the minode a create keeps, about 0.20 heap objects an op; the gate
#   sits at twice that. A removed directory's index is the next one's,
#   and the device is mapped outside the Go heap: about 29 MiB peak RSS
#   (54 while the device sat in the heap, 37 while a format zeroed its
#   tables).
# - kv_app, 1 s: a Put copies into the memtable's arena and a Get reads
#   its block into a pooled buffer, about 0.32 heap objects an op (3.6
#   when each allocated its own).
# - data_rw, 1 s: a truncate's freed pages come back after one grace
#   period, because the retire queue is bounded in pages, about 102 MiB
#   peak RSS (119 when it counted objects).
#
# Results land in benchmark/out/ and the build in .bench_build/ (both
# gitignored). Stops at the first failing step.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n=== %s ===\n' "$*"; }

# gate WORKLOAD SECONDS [METRIC MAX]...
gate() {
  local workload=$1 seconds=$2 result value
  shift 2
  step "repo benchmark: $workload, $seconds s, seed 1 (correct, nothing failed${*:+; at most: $*})"
  result="$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "$result"
  echo "$result" | grep -q '"correct":true'
  echo "$result" | grep -q '"failed":0,'
  while [ $# -gt 0 ]; do
    value="$(echo "$result" | sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p")"
    awk -v v="$value" -v max="$2" -v name="$workload $1" \
      'BEGIN { if (v == "" || v + 0 > max + 0) { print name " " v ", want at most " max > "/dev/stderr"; exit 1 } }'
    shift 2
  done
}

step "repo benchmark module tests"
(cd benchmark && go test ./...)

gate handoff 3 peak_rss_mb 23 allocs_per_op 128
gate meta_churn 3 allocs_per_op 0.45 peak_rss_mb 34
gate kv_app 1 allocs_per_op 1.0
gate data_rw 1 peak_rss_mb 110
