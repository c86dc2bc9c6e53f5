# Tier-1 gate plus the checks CI runs. `make ci` is what must stay green.

GO ?= go

.PHONY: all build vet test race bench benchsmoke benchtest examples serve smoke clustersmoke fuzz allocgate fmtcheck ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file (the bench/ module included) must be gofmt-clean; the
# offending files are listed on failure.
fmtcheck:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run NONE .

# One iteration of every benchmark in every package: catches bit-rotted
# benchmark code without paying for a real measurement run.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The perf ledger's nested module (bench/, `bash bench/run.sh`): tier-1
# never compiles it, yet it links against spindex, server, core and query.
benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The examples that check their own output (log.Fatal on any mismatch):
# online compression within the TSND/NSTD bounds and losslessly
# decompressed, and session ingest matching batch compression.
examples:
	$(GO) run ./examples/online
	$(GO) run ./examples/streaming

# Boot the serving daemon on a freshly generated demo workload (ctrl-C or
# SIGTERM drains and exits cleanly).
serve:
	$(GO) run ./cmd/pressgen -out /tmp/press-demo -trips 120
	$(GO) run ./cmd/pressd -net /tmp/press-demo/network.txt \
		-train /tmp/press-demo/trips.txt -store /tmp/press-demo/fleet \
		-addr 127.0.0.1:8321

# End-to-end daemon smoke: boot pressd against a temp store, curl
# /healthz plus one ingest+query round-trip, SIGTERM, assert clean exit.
smoke:
	./scripts/pressd_smoke.sh

# Cluster smoke: two pressd nodes + the pressr router — routed ingest, 421
# misroutes, fleet scatter-gather, and the 206 partial-result contract when
# a node dies mid-fleet.
clustersmoke:
	./scripts/cluster_smoke.sh

# Short fuzz smoke: keeps the harnesses from bit-rotting. FUZZTIME=5m for a
# real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzStoreRoundtrip -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -fuzz=FuzzHierVsTable -fuzztime=$(FUZZTIME) ./internal/spindex
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzOnlineCompressorEquivalence -fuzztime=$(FUZZTIME) ./internal/core

# Allocation-regression gate: the binary wire frame decode must stay at
# exactly 0 allocs/op or the ingest hot path has regressed.
allocgate:
	./scripts/allocgate.sh

ci: fmtcheck build vet race benchsmoke benchtest examples fuzz allocgate smoke clustersmoke
