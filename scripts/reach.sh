#!/usr/bin/env bash
# Program reach: runs the program corpus (scripts/e2e.sh) with every
# binary built for coverage, prints per-package statement coverage — a
# second meter beside scripts/loc.sh — and then gates on functions:
# TestEveryFunctionRuns (census_test.go) fails on any function under
# internal/ that no run executed and unreachedFuncs does not list, and
# logs the listed ones with their reasons.
#
# Usage: scripts/reach.sh [out-dir]
#   out-dir keeps the binaries, the raw counters and the merged profile
#   (reach.out); it defaults to a temporary directory removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-}"
if [[ -z "$out" ]]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi
rm -rf "$out/counters"
mkdir -p "$out/counters" "$out/bin"

# go build reads GOFLAGS, so e2e.sh builds coverage binaries unchanged;
# each run writes its counters into GOCOVERDIR when it exits.
GOFLAGS="-cover -coverpkg=repro/..." GOCOVERDIR="$out/counters" scripts/e2e.sh "$out/bin"

echo "== program coverage per package (statements)" >&2
go tool covdata percent -i "$out/counters" | sed 's/^[[:space:]]*//' | sort
go tool covdata textfmt -i "$out/counters" -o "$out/reach.out"

echo "== every function under internal/ runs in a program, or is listed" >&2
REACH_PROFILE="$out/reach.out" go test -count=1 -v -run '^TestEveryFunctionRuns$' .
