#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the Go build cache and the binaries under
# .bench_build/, results and traces under benchmark/out/.
#
#   bash benchmark/run.sh                              all workloads, traced runs, probes
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh -selfcheck
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

cd "$here"
go build -o "$build/bin/run" ./run

# The probes import the inner packages; if a later API change breaks their
# build, the end-to-end metrics must still be measurable.
probes="$build/bin/probes"
if ! go build -o "$probes" ./probes; then
	echo "benchmark: probes do not build; their metrics will be null" >&2
	probes=""
fi

sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/bin/run" -sha "$sha" -probes "$probes" -out "$here/out" "$@"
