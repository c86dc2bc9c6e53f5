#!/usr/bin/env bash
# pressd end-to-end smoke: generate a workload, boot the daemon against a
# fresh store, verify /healthz, the SP accounting, one ingest+query
# round-trip and the /metrics exposition, then SIGTERM and assert a clean
# (exit 0) drain. The retired snapshot and query-cache flags must be
# refused as unknown (exit 2). CI runs this on every push; `make smoke` runs it locally.
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
    -store "$tmp/fleet" -addr "127.0.0.1:${PORT}")

# The shortest-path snapshot and the query cache are gone, and so are
# their flags: the flag package rejects an unknown flag with exit status 2.
# The timeout turns a daemon that accepted the flag and booted into a
# failure rather than a hang.
refused() {
    local status=0
    timeout 30 "$tmp/pressd" "${args[@]}" "$@" >"$tmp/pressd-flag.log" 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "pressd $* exited $status, want 2:"; cat "$tmp/pressd-flag.log"; exit 1
    fi
}
refused -snapshot x
refused -cachebytes 1

# boot LOG [flags...]: start the daemon in the background and wait for it
# to come up (graph load + codebook training).
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

boot "$tmp/pressd.log"

# Buffer every response fully before grepping: grep -q exiting on a
# mid-body match would otherwise SIGPIPE curl and fail the pipeline under
# pipefail (curl exit 23).
curl -fs "$BASE/healthz" | grep -q '"status":"ok"'

# SP accounting, before the first query: the search reports its scratch.
stats="$(curl -fs "$BASE/v1/stats")"
echo "$stats" | grep -q '"kind":"hier"'
echo "$stats" | grep -q '"heap_bytes":[1-9]'

# One ingest + query round-trip: a single-edge trip for vehicle 7.
body="$(curl -fs -X POST "$BASE/v1/ingest/7" -H 'Content-Type: application/json' \
    -d '{"points":[{"edge":0,"sample":{"d":0,"t":0}},{"sample":{"d":120,"t":60}}],"flush":true}')"
echo "$body" | grep -q '"accepted":2'
curl -fs "$BASE/v1/whereat?id=7&t=30" | grep -q '"x"'

# Warm query path. The view keeps no decoded state, so the repeated and
# the new whereat each decode the record once: three reads, three decodes,
# and no cache section in /v1/stats.
curl -fs "$BASE/v1/whereat?id=7&t=30" >/dev/null
curl -fs "$BASE/v1/whereat?id=7&t=45" | grep -q '"x"'
stats="$(curl -fs "$BASE/v1/stats")"
echo "$stats" | grep -q '"query":{"decodes":3}'
if echo "$stats" | grep -q '"cache_enabled"'; then
    echo "pressd still reports a query cache in /v1/stats"; exit 1
fi

# Prometheus exposition mirrors the same counters and the SP accounting.
metrics="$(curl -fs "$BASE/metrics")"
echo "$metrics" | grep -q '^press_query_decodes_total 3'
if echo "$metrics" | grep -Eq 'press_query_(result_)?cache_'; then
    echo "pressd still exports a query cache metric"; exit 1
fi
echo "$metrics" | grep -q '^press_store_records 1'
echo "$metrics" | grep -q '^press_sp_kind{kind="hier"} 1'
echo "$metrics" | grep -q '^# TYPE press_sp_heap_bytes gauge'
# The flush above upserted the fleet index in place; there is no other
# index, so no rebuild counter exists.
echo "$metrics" | grep -q '^press_fleet_index_upserts_total [1-9]'
if echo "$metrics" | grep -q 'press_fleet_index_rebuilds'; then
    echo "pressd still exposes a fleet index rebuild counter"; exit 1
fi
# The search holds no rows, mapping or caches, so none is exported.
if echo "$metrics" | grep -Eq 'press_sp_(cached_rows|row_cache_bytes|mapped_bytes|build_workers|witness|unpack)'; then
    echo "pressd still exports a retired shortest-path gauge"; exit 1
fi

drain "$tmp/pressd.log"
echo "pressd smoke OK"
