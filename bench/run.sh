#!/usr/bin/env bash
# BENCHMARK.json's command. Runs the harness from the repository root with
# the Go build cache and temporary files inside the checkout, so a run
# reads and writes nothing outside it. Arguments pass through to
# `go run ./bench`.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/gocache .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/tmp"
exec go run ./bench "$@"
