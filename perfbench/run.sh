#!/usr/bin/env bash
# Builds the benchmark against the repository it sits in, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-sync --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, checkpoints and spans.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
