#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's own build directory
# and runs it. Everything the build and the run write stays under
# .bench_build/ in the directory this is started from (the checkout root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/magic-benchmark" .)
exec "$build/magic-benchmark" "$@"
