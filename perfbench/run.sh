#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload durable-upsert --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 1
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, WAL directories, span dumps — stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
