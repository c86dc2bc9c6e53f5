#!/usr/bin/env bash
# pressd end-to-end smoke: generate a workload, boot the daemon against a
# fresh snapshot + store, verify /healthz, the mapped-hierarchy boot, one
# ingest+query round-trip and the /metrics exposition, then SIGTERM and
# assert a clean (exit 0) drain. A second phase damages the snapshot and
# checks the stale-cache contract: a plain boot refuses it and names -init,
# -init rematerializes it. CI runs this on every push; `make smoke` runs it
# locally.
set -euo pipefail

PORT="${PRESSD_SMOKE_PORT:-18466}"
BASE="http://127.0.0.1:${PORT}"
tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pressd" ./cmd/pressd
go run ./cmd/pressgen -out "$tmp/data" -trips 60 -rows 8 -cols 8 >/dev/null

args=(-net "$tmp/data/network.txt" -train "$tmp/data/trips.txt"
    -snapshot "$tmp/sp.snap" -store "$tmp/fleet" -addr "127.0.0.1:${PORT}")

# boot LOG [flags...]: start the daemon in the background and wait for it
# to come up (snapshot build + mmap boot).
boot() {
    local log="$1"; shift
    "$tmp/pressd" "${args[@]}" "$@" >"$log" 2>&1 &
    pid=$!
    for _ in $(seq 1 150); do
        if curl -fs "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$pid" 2>/dev/null || { echo "pressd died during boot:"; cat "$log"; exit 1; }
        sleep 0.2
    done
    echo "pressd never became healthy:"; cat "$log"; exit 1
}

# drain LOG: SIGTERM must produce a clean exit 0.
drain() {
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "pressd did not exit cleanly:"; cat "$1"; exit 1
    fi
    pid=""
    grep -q "clean exit" "$1"
}

boot "$tmp/pressd.log" -init
grep -q "materializing" "$tmp/pressd.log"

# Buffer every response fully before grepping: grep -q exiting on a
# mid-body match would otherwise SIGPIPE curl and fail the pipeline under
# pipefail (curl exit 23).
curl -fs "$BASE/healthz" | grep -q '"status":"ok"'

# Snapshot-boot invariant, before the first query: the daemon serves the
# contraction hierarchy mapped from the file it just materialized (no build
# at boot), and holds no Dijkstra rows — not even after codebook training.
stats="$(curl -fs "$BASE/v1/stats")"
echo "$stats" | grep -q '"kind":"hier"'
echo "$stats" | grep -q '"mapped":true'
echo "$stats" | grep -q '"cached_rows":0,'
echo "$stats" | grep -q '"build_workers":[1-9]'
echo "$stats" | grep -q '"unpack_hits"'

# One ingest + query round-trip: a single-edge trip for vehicle 7.
body="$(curl -fs -X POST "$BASE/v1/ingest/7" -H 'Content-Type: application/json' \
    -d '{"points":[{"edge":0,"sample":{"d":0,"t":0}},{"sample":{"d":120,"t":60}}],"flush":true}')"
echo "$body" | grep -q '"accepted":2'
curl -fs "$BASE/v1/whereat?id=7&t=30" | grep -q '"x"'

# Warm query path. Repeating the identical whereat is answered by the
# result memo (result_hits); a second timestamp on the same vehicle misses
# the memo but finds the decoded record in the LRU (hits). Both layers must
# show up in /v1/stats.
curl -fs "$BASE/v1/whereat?id=7&t=30" >/dev/null
curl -fs "$BASE/v1/whereat?id=7&t=45" | grep -q '"x"'
stats="$(curl -fs "$BASE/v1/stats")"
echo "$stats" | grep -q '"cache_enabled":true'
echo "$stats" | grep -q '"hits":[1-9]'
echo "$stats" | grep -q '"result_hits":[1-9]'

# Prometheus exposition mirrors the same counters and the SP accounting.
metrics="$(curl -fs "$BASE/metrics")"
echo "$metrics" | grep -q '^# TYPE press_query_cache_hits_total counter'
echo "$metrics" | grep -q '^press_query_result_cache_hits_total [1-9]'
echo "$metrics" | grep -q '^press_store_records 1'
echo "$metrics" | grep -q '^press_sp_kind{kind="hier"} 1'
echo "$metrics" | grep -q '^# TYPE press_sp_mapped_bytes gauge'
echo "$metrics" | grep -q '^# TYPE press_sp_heap_bytes gauge'
echo "$metrics" | grep -q '^press_sp_build_workers [1-9]'
echo "$metrics" | grep -q '^# TYPE press_sp_unpack_cache_hits_total counter'
# The flush above upserted the fleet index in place; there is no other
# index, so no rebuild counter exists.
echo "$metrics" | grep -q '^press_fleet_index_upserts_total [1-9]'
if echo "$metrics" | grep -q 'press_fleet_index_rebuilds'; then
    echo "pressd still exposes a fleet index rebuild counter"; exit 1
fi
# The hierarchy holds no rows, so no row gauge is exported.
if echo "$metrics" | grep -Eq 'press_sp_(cached_rows|row_cache_bytes)'; then
    echo "pressd still exports a shortest-path row gauge"; exit 1
fi

drain "$tmp/pressd.log"

# Second phase: a stale snapshot cache. Garbage where the snapshot was must
# stop a plain boot with a message that names -init ...
head -c 4096 /dev/urandom >"$tmp/sp.snap"
if "$tmp/pressd" "${args[@]}" >"$tmp/pressd-stale.log" 2>&1; then
    echo "pressd booted from a garbage snapshot:"; cat "$tmp/pressd-stale.log"; exit 1
fi
grep -q -- "-init" "$tmp/pressd-stale.log"

# ... and -init must rematerialize it and serve the store from phase one.
boot "$tmp/pressd-init.log" -init
grep -q "materializing" "$tmp/pressd-init.log"
curl -fs "$BASE/v1/whereat?id=7&t=30" | grep -q '"x"'
stats="$(curl -fs "$BASE/v1/stats")"
echo "$stats" | grep -q '"kind":"hier"'
echo "$stats" | grep -q '"mapped":true'
metrics="$(curl -fs "$BASE/metrics")"
echo "$metrics" | grep -q '^press_sp_kind{kind="hier"} 1'
echo "$metrics" | grep -q '^# TYPE press_sp_mapped_bytes gauge'
echo "$metrics" | grep -q '^press_sp_build_workers [1-9]'

drain "$tmp/pressd-init.log"
echo "pressd smoke OK"
