#!/usr/bin/env bash
# Builds the benchmark into the checkout's build directory and runs it from
# the checkout root. Everything the build and the run write stays inside the
# checkout: Go's build cache and temporary files are pointed at .bench_build.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$src")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$src" && go build -o "$build/pressperf" .)
cd "$root"
exec "$build/pressperf" "$@"
