#!/usr/bin/env bash
# Builds the lotterybus benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload sweep|fabric|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temp files, the binary, the report files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
