#!/usr/bin/env bash
# Builds ckbench from the source tree it sits in and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare base-results/ new-results/
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, result files) stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/bench" && go build -o "$build/ckbench" ./ckbench)
cd "$root"
exec "$build/ckbench" "$@"
