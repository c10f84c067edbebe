# Verification pipeline for the HD-map ecosystem repo.
#
#   make verify   — everything CI runs: vet, build, race-enabled tests,
#                   the maintenance chaos soak, the overload soak, and
#                   short fuzz smokes.
#   make test     — fast tier-1 check (what the roadmap calls "tier-1").
#   make soak     — the ingestion chaos soak at CI volume.
#   make soak-overload — stampede the resilient tile server at CI volume.
#   make soak-cluster — node-kill chaos against the replicated cluster.
#   make soak-antientropy — delete/crash/revive chaos converged by
#                   background sweeps alone (no reads).
#   make soak-reads — seeded divergent-replica schedules through the
#                   state-probe quorum read, checked against full-body
#                   comparison.
#   make soak-alerting — fault arcs through the push-alerting plane:
#                   incidents, webhook delivery under chaos, flap damping.
#   make loadtest — run the closed-loop load generator against a
#                   self-hosted server and print its /statz.
#   make bench-gate — run the perf probe suite and gate it against the
#                   committed BENCH_baseline.json.
#   make fuzz     — longer decode fuzzing for local hunting.

GO ?= go
FUZZTIME ?= 5s
SOAK_REPORTS ?= 1200
SOAK_GETS ?= 4000
SOAK_CLUSTER_GETS ?= 3000
SOAK_AE_DELETES ?= 8
SOAK_READ_SEEDS ?= 3000
SOAK_ALERT_ARCS ?= 2

.PHONY: verify vet vet-obs build test race soak soak-overload soak-cluster soak-antientropy soak-reads soak-alerting loadtest fuzz-smoke fuzz bench bench-gate bench-baseline

verify: vet vet-obs build race soak soak-overload soak-cluster soak-antientropy soak-reads soak-alerting fuzz-smoke
	@echo "verify: all green"

vet:
	$(GO) vet ./...

# Telemetry lint: every metric registered anywhere in the tree must use
# a literal name in the component.subsystem.name scheme, and label
# domains must be enumerated (bounded cardinality). Dynamic names are a
# cardinality leak waiting to happen, so they fail the build.
vet-obs:
	$(GO) test -run '^TestObsLint$$' -count=1 ./internal/obs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector runs over the full suite — the chaos integration
# tests hammer the client/server concurrently and are the main customer.
# (TestReadProtocolProperty's default 1000 schedules ride along here;
# soak-reads runs the larger batch.)
race:
	$(GO) test -race ./...

# Self-healing maintenance under a hostile fleet: >=20% corrupt/
# Byzantine/duplicate reports plus injected stage panics, bounded by
# SOAK_REPORTS so CI duration stays predictable.
soak:
	SOAK_REPORTS=$(SOAK_REPORTS) $(GO) test -race -run '^TestChaosSoak$$' -count=1 ./internal/update/ingest

# Overload resilience: a zipfian closed-loop stampede with thundering-
# herd bursts against the admission-controlled tile server, bounded by
# SOAK_GETS. Asserts the accounting invariant (no request lost silently),
# Retry-After on every shed response, and coalescing/cache keeping store
# reads well under client reads.
soak-overload:
	SOAK_GETS=$(SOAK_GETS) $(GO) test -race -run '^TestOverloadSoak$$' -count=1 ./internal/chaos

# Cluster robustness: 5 replicated nodes behind the consistent-hash
# router, one killed and revived mid-load each round, bounded by
# SOAK_CLUSTER_GETS. Asserts zero read unavailability at quorum,
# byte-identical replica convergence, hinted handoff draining to empty,
# and the router accounting invariant routed == served + shed + errored.
# SOAK_ALERT_LIFECYCLE adds the bounded end-of-soak alert arc: total
# node failure drives slo.read.availability ok -> critical (with a
# resolvable exemplar trace) and revival clears it back to ok.
soak-cluster:
	SOAK_CLUSTER_GETS=$(SOAK_CLUSTER_GETS) SOAK_ALERT_LIFECYCLE=1 $(GO) test -race -run '^TestClusterSoak$$' -count=1 ./internal/chaos

# Anti-entropy convergence: cold-replica divergence and a delete/crash/
# revive cycle (half the durable hints destroyed) must converge through
# Merkle-digest sweeps alone — the router serves zero reads while the
# fleet heals — and tombstone GC must reclaim every marker with the
# ledger balanced, bounded by SOAK_AE_DELETES.
soak-antientropy:
	SOAK_AE_DELETES=$(SOAK_AE_DELETES) $(GO) test -race -run '^TestAntiEntropySoak$$' -count=1 ./internal/chaos

# Read protocol: SOAK_READ_SEEDS seeded schedules write a key's three
# owners directly into divergent states (older/newer clock, same clock
# with different bytes, tombstone vs live, two same-clock markers,
# absent) with owners down — the body owner included — and assert the
# routed GET answers what comparing full bodies selects and that
# read-repair converges every reachable owner on the winner. A failing
# seed is printed; replay it with READ_SEED=<n>.
soak-reads:
	SOAK_READ_SEEDS=$(SOAK_READ_SEEDS) $(GO) test -race -run '^TestReadProtocolProperty$$' -count=1 ./internal/cluster

# Active observability plane: repeated total-fleet kill/revive arcs must
# each mint exactly one availability incident bundling the kill+revival
# journal events and a resolvable exemplar trace; webhook deliveries
# through a 30%-error chaos link must keep the ledger balanced (fired ==
# delivered + dropped, zero pending after Close); and an oscillating
# objective inside the min-hold window must produce exactly one
# notification. Bounded by SOAK_ALERT_ARCS.
soak-alerting:
	SOAK_ALERT_ARCS=$(SOAK_ALERT_ARCS) $(GO) test -race -run '^TestAlertingSoak$$' -count=1 ./internal/chaos

# Interactive load drill: self-hosts a generated city behind the
# overload pipeline, stampedes it, and prints outcomes plus /statz.
loadtest:
	$(GO) run ./cmd/hdmapctl loadtest -clients 40 -requests 100 -rate 50

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBinary$$' -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBinaryDifferential -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzTombstoneDecode -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzParseTileKey -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzEncodeFrom -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzParseReplicaState -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzParseTileWindow -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzManifestEntryState -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzRegionLanding -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzTrainBoost -fuzztime=$(FUZZTIME) ./internal/update/crowdupdate
	$(GO) test -run='^$$' -fuzz=FuzzSanitizeTraceID -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzVerifyMap -fuzztime=$(FUZZTIME) ./internal/mapverify
	$(GO) test -run='^$$' -fuzz=FuzzVerifyDelta -fuzztime=$(FUZZTIME) ./internal/mapverify
	$(GO) test -run='^$$' -fuzz=FuzzGateDelta -fuzztime=$(FUZZTIME) ./internal/update/ingest

fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBinary$$' -fuzztime=5m ./internal/storage

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Perf trajectory: run the hot-path probe suite and gate it against the
# committed baseline (loose on wall time — CI neighbours are noisy —
# tight on allocations, which are deterministic).
bench-gate:
	$(GO) run ./cmd/mapbench -compare BENCH_baseline.json

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	$(GO) run ./cmd/mapbench -json -out BENCH_baseline.json
