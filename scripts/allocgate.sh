#!/usr/bin/env bash
# Allocation-regression gate for the two allocation-free steady states the
# docs claim: the binary wire ingest decode and the warmed shortest-path
# search. Each benchmark must report exactly 0 allocs/op. Run
# by `make allocgate` and CI; TestDecodeAllocFree and TestHierQueryAllocFree
# cover the same invariants in plain `go test`, this script pins the
# -benchmem evidence the docs cite.
set -euo pipefail
cd "$(dirname "$0")/.."

# gate NAME BENCH_REGEX PACKAGE — run one benchmark, demand 0 allocs/op.
gate() {
    local name="$1" bench="$2" pkg="$3"
    local out allocs
    out=$(go test -run '^$' -bench "$bench" -benchmem -benchtime 100x "$pkg")
    echo "$out"
    allocs=$(echo "$out" | awk -v b="${bench%$}" '$0 ~ b {for (i=1; i<=NF; i++) if ($(i+1) == "allocs/op") print $i}')
    if [ -z "$allocs" ]; then
        echo "allocgate: FAIL: could not find allocs/op in $name benchmark output" >&2
        exit 1
    fi
    if [ "$allocs" != "0" ]; then
        echo "allocgate: FAIL: $name allocates ($allocs allocs/op, want 0)" >&2
        exit 1
    fi
    echo "allocgate: OK: $name is allocation-free"
}

gate "frame decode" 'BenchmarkFrameDecode$' ./internal/wire
gate "hier hot query" 'BenchmarkHierQueryHot$' ./internal/spindex
