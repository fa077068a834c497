#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is
# passed through. Run from the repository root:
#
#   bash bench/run.sh --workload hot-mixed --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache stay in .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$build/fx10bench" .)
cd "$root"
exec "$build/fx10bench" "$@"
