#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash rdbench/run.sh --workload identify|eco|fleet --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, stores, journals, event logs and span
# dumps) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/rdbench" .)
exec "$build/rdbench" -dir "$build" "$@"
