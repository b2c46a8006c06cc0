#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash bench/run.sh --workload paper-hidden --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artefact, temporary file
# and work directory stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C "$root/bench" -o "$build/wlanbench" .
exec "$build/wlanbench" "$@"
