#!/usr/bin/env bash
# Re-runs the mutant corpus behind docs/TESTING.md's matrix:
#
#   bash scripts/mutants.sh [testdata/mutants/NAME.diff ...]
#
# Each diff (all of them by default) is applied to a fresh copy of the
# tree, and the detectors its "Expect:" header line names are run there:
#
#   arcklint   the checker on the "Checker:" line reports more findings
#              than on the unmutated tree
#   go-test    go test ./... fails (bar TestMutantsApply, which checks the
#              corpus against the tree the mutant changed)
#   race       bash scripts/race.sh fails
#   arckcrash  go run ./cmd/arckcrash -iters 40 -seed 1 fails
#
# One line a mutant: what each detector did, then "ok" when that matches
# the header or "MISMATCH". Exits 1 on a mismatch or a diff that no longer
# applies. Slow by design: race takes minutes a mutant.
set -uo pipefail
diffs=()
for d in "$@"; do diffs+=("$(realpath "$d")"); done
cd "$(dirname "$0")/.."
root=$PWD
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
[ ${#diffs[@]} -gt 0 ] || diffs=("$root"/testdata/mutants/*.diff)

findings() { go run ./cmd/arcklint -checker "$1" ./... 2>/dev/null | grep -c ": $1: "; }

# caught DETECTOR CHECKER succeeds when the detector catches the mutant in
# the current directory.
caught() {
  case $1 in
  arcklint) [ "$(findings "$2")" -gt "$(cd "$root" && findings "$2")" ] ;;
  go-test) ! go test -skip '^TestMutantsApply$' ./... >/dev/null 2>&1 ;;
  race) ! bash scripts/race.sh >/dev/null 2>&1 ;;
  arckcrash) ! go run ./cmd/arckcrash -iters 40 -seed 1 -artifacts "$tmp/artifacts" >/dev/null 2>&1 ;;
  *) return 2 ;;
  esac
}

# The same path for every mutant keeps go test's cache warm for the
# packages a diff leaves alone.
rev="$(git stash create)"
status=0
for diff in "${diffs[@]}"; do
  name="$(basename "$diff" .diff)"
  rm -rf "$tmp/tree" && mkdir "$tmp/tree"
  git archive "${rev:-HEAD}" | tar -x -C "$tmp/tree"
  if ! git -C "$tmp/tree" apply "$diff" 2>/dev/null; then
    echo "$name  does not apply  MISMATCH"
    status=1
    continue
  fi
  checker="$(sed -n 's/^Checker: \([a-z]*\).*/\1/p' "$diff")"
  line="$name "
  verdict=ok
  IFS=';' read -ra expects <<<"$(sed -n 's/^Expect: //p' "$diff")"
  for e in "${expects[@]}"; do
    read -r detector want <<<"$e"
    got=missed
    (cd "$tmp/tree" && caught "$detector" "$checker") && got=caught
    line+=" $detector=$got"
    [ "$got" = "$want" ] || verdict=MISMATCH
  done
  echo "$line  $verdict"
  [ "$verdict" = ok ] || status=1
done
exit "$status"
