#!/usr/bin/env bash
# Cluster end-to-end smoke: two pressd nodes over the same network and
# training trips plus a pressr router in front. Verifies router-side ingest lands on the
# owning node (and only there), a fleet range through the router sees both
# partitions, misrouted direct ingest bounces with 421 naming the owner,
# SIGTERM on one node degrades fleet queries to 206 with the dead partition
# reported, and every process exits cleanly. CI runs this on every push;
# `make clustersmoke` runs it locally.
set -euo pipefail

PORT0="${PRESS_CLUSTER_SMOKE_PORT0:-18470}"
PORT1="${PRESS_CLUSTER_SMOKE_PORT1:-18471}"
RPORT="${PRESS_CLUSTER_SMOKE_RPORT:-18472}"
NODE0="http://127.0.0.1:${PORT0}"
NODE1="http://127.0.0.1:${PORT1}"
ROUTER="http://127.0.0.1:${RPORT}"
CLUSTER="127.0.0.1:${PORT0},127.0.0.1:${PORT1}"
tmp="$(mktemp -d)"
pid0=""
pid1=""
rpid=""
cleanup() {
    for p in "$pid0" "$pid1" "$rpid"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pressd" ./cmd/pressd
go build -o "$tmp/pressr" ./cmd/pressr
go run ./cmd/pressgen -out "$tmp/data" -trips 60 -rows 8 -cols 8 >/dev/null

# Each node boots from the same network and training trips, so both train
# the same codebook and compress identically.
"$tmp/pressd" -net "$tmp/data/network.txt" -train "$tmp/data/trips.txt" \
    -store "$tmp/fleet0" \
    -cluster "$CLUSTER" -node-index 0 \
    -addr "127.0.0.1:${PORT0}" >"$tmp/node0.log" 2>&1 &
pid0=$!

wait_ready() { # url pid log
    local up=""
    for _ in $(seq 1 150); do
        if curl -fs "$1/readyz" >/dev/null 2>&1; then up=1; break; fi
        kill -0 "$2" 2>/dev/null || { echo "process died during boot:"; cat "$3"; exit 1; }
        sleep 0.2
    done
    [ -n "$up" ] || { echo "never became ready:"; cat "$3"; exit 1; }
}
wait_ready "$NODE0" "$pid0" "$tmp/node0.log"

"$tmp/pressd" -net "$tmp/data/network.txt" -train "$tmp/data/trips.txt" \
    -store "$tmp/fleet1" \
    -cluster "$CLUSTER" -node-index 1 \
    -addr "127.0.0.1:${PORT1}" >"$tmp/node1.log" 2>&1 &
pid1=$!
wait_ready "$NODE1" "$pid1" "$tmp/node1.log"

# Fast probes so the partial-failure phase below converges quickly.
"$tmp/pressr" -cluster "$CLUSTER" -addr "127.0.0.1:${RPORT}" \
    -probe-every 200ms -fail-threshold 2 \
    -retries 1 -retry-backoff 10ms >"$tmp/router.log" 2>&1 &
rpid=$!
wait_ready "$ROUTER" "$rpid" "$tmp/router.log"

# Both nodes report their cluster coordinates.
curl -fs "$NODE0/v1/stats" | grep -q '"node":0'
curl -fs "$NODE1/v1/stats" | grep -q '"node":1'
curl -fs "$NODE0/v1/stats" | grep -q '"nodes":2'

# Find one vehicle id per partition by asking the nodes themselves: ingest
# through the router, then check which store each id landed in. Ids 0..7
# are guaranteed to span both partitions only probabilistically, so probe
# until each node owns at least one of ours.
own0=""
own1=""
for id in 0 1 2 3 4 5 6 7; do
    body="$(curl -fs -X POST "$ROUTER/v1/ingest/$id" -H 'Content-Type: application/json' \
        -d '{"points":[{"edge":0,"sample":{"d":0,"t":0}},{"sample":{"d":120,"t":60}}],"flush":true}')"
    echo "$body" | grep -q '"accepted":2' || { echo "router ingest $id failed: $body"; exit 1; }
    if [ -z "$own0" ] && curl -fs "$NODE0/v1/whereat?id=$id&t=30" | grep -q '"x"'; then own0="$id"; fi
    if [ -z "$own1" ] && curl -fs "$NODE1/v1/whereat?id=$id&t=30" | grep -q '"x"'; then own1="$id"; fi
    [ -n "$own0" ] && [ -n "$own1" ] && break
done
[ -n "$own0" ] && [ -n "$own1" ] || { echo "ids 0..7 did not span both partitions"; exit 1; }

# Partition integrity: each vehicle lives on its owner and ONLY there (the
# foreign node answers 421 naming the owner, not 404).
code="$(curl -s -o "$tmp/mis.json" -w '%{http_code}' "$NODE1/v1/whereat?id=$own0&t=30")"
[ "$code" = "421" ] || { echo "foreign whereat: HTTP $code, want 421"; cat "$tmp/mis.json"; exit 1; }
grep -q '"owner":0' "$tmp/mis.json"
code="$(curl -s -o "$tmp/mis.json" -w '%{http_code}' -X POST "$NODE0/v1/ingest/$own1" \
    -H 'Content-Type: application/json' -d '{"points":[{"edge":0}],"flush":false}')"
[ "$code" = "421" ] || { echo "misrouted ingest: HTTP $code, want 421"; cat "$tmp/mis.json"; exit 1; }
grep -q '"owner":1' "$tmp/mis.json"

# Single-vehicle queries through the router reach the right partition.
curl -fs "$ROUTER/v1/whereat?id=$own0&t=30" | grep -q '"x"'
curl -fs "$ROUTER/v1/whereat?id=$own1&t=30" | grep -q '"x"'

# Fleet range through the router sees both partitions in one sorted answer.
fleet="$(curl -fs "$ROUTER/v1/range?t1=0&t2=100&xmin=-1000000&ymin=-1000000&xmax=1000000&ymax=1000000")"
echo "$fleet" | grep -q "\"ids\":" || { echo "fleet range: $fleet"; exit 1; }
echo "$fleet" | grep -qv '"partial"' || { echo "healthy fleet range reported partial: $fleet"; exit 1; }
for id in $own0 $own1; do
    echo "$fleet" | tr '[]' '\n\n' | grep -q "\b$id\b" || { echo "fleet range missing $id: $fleet"; exit 1; }
done

# Router observability: per-node counters present on /v1/stats and /metrics.
curl -fs "$ROUTER/v1/stats" | grep -q '"healthy":true'
metrics="$(curl -fs "$ROUTER/metrics")"
echo "$metrics" | grep -q '^press_router_nodes 2'
echo "$metrics" | grep -q '^press_router_node_healthy{node="1"} 1'
echo "$metrics" | grep -q 'press_http_request_seconds_count{endpoint="range"}'

# Kill node 1: its drain drops /readyz first, the router's probes mark the
# partition dark, and fleet queries degrade to 206 + missing instead of
# silently shrinking.
kill -TERM "$pid1"
if ! wait "$pid1"; then
    echo "node 1 did not exit cleanly:"; cat "$tmp/node1.log"; exit 1
fi
pid1=""
grep -q "clean exit" "$tmp/node1.log"

degraded=""
for _ in $(seq 1 50); do
    code="$(curl -s -o "$tmp/partial.json" -w '%{http_code}' \
        "$ROUTER/v1/range?t1=0&t2=100&xmin=-1000000&ymin=-1000000&xmax=1000000&ymax=1000000")"
    if [ "$code" = "206" ]; then degraded=1; break; fi
    sleep 0.2
done
[ -n "$degraded" ] || { echo "fleet range never degraded to 206 after node death"; exit 1; }
grep -q '"partial":true' "$tmp/partial.json"
grep -q '"missing":\[1\]' "$tmp/partial.json"

# The surviving partition keeps answering.
curl -fs "$ROUTER/v1/whereat?id=$own0&t=30" | grep -q '"x"'

# Once the prober crosses its fail threshold the dead partition is health-
# gated: single-vehicle requests answer 503 without touching the network.
# (Before that the 206 above came from the transport-failure path.)
marked=""
for _ in $(seq 1 50); do
    if curl -fs "$ROUTER/metrics" | grep -q '^press_router_node_healthy{node="1"} 0'; then marked=1; break; fi
    sleep 0.2
done
[ -n "$marked" ] || { echo "router never marked node 1 unhealthy"; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "$ROUTER/v1/whereat?id=$own1&t=30")"
[ "$code" = "503" ] || { echo "dead-partition whereat: HTTP $code, want 503"; exit 1; }

# Clean exits for the survivors.
kill -TERM "$rpid"
if ! wait "$rpid"; then
    echo "router did not exit cleanly:"; cat "$tmp/router.log"; exit 1
fi
rpid=""
grep -q "clean exit" "$tmp/router.log"
kill -TERM "$pid0"
if ! wait "$pid0"; then
    echo "node 0 did not exit cleanly:"; cat "$tmp/node0.log"; exit 1
fi
pid0=""
grep -q "clean exit" "$tmp/node0.log"
echo "cluster smoke OK"
