# Tier-1 verification gate: everything a change must pass before merging.
# `make check` = vet + build + race-enabled tests + observability smoke +
# benchmark regression gate for the whole module.

GO ?= go

# Benchmark regression gate. `make bench` reruns the figure and throughput
# benches and refreshes the committed BENCH_2.json baseline; `make
# bench-check` reruns only the gated throughput benches and fails when they
# regress beyond the threshold (see cmd/benchcheck). BENCH_TIME trades
# precision for time.
BENCH_TIME ?= 1s
BENCH_OUT  ?= bench_latest.txt

# Latency SLO gate for `make loadtest`: measured p99 may drift up to this
# multiple of the committed baseline before the build fails. Percentiles on
# a shared machine are far noisier than ns/op microbenchmarks, hence the
# generous factor.
SLO_THRESHOLD ?= 4.0
LOADTEST_OUT  ?= loadtest_latest.txt

.PHONY: check vet lint build bench-module test race observe fuzz conformance dataplane rolling coherency bench bench-check loadtest slo

check: vet lint build bench-module race observe fuzz conformance dataplane rolling coherency bench-check loadtest slo

# Import guard: the protocol incarnations (scheme, sim, runtime, httpgw)
# must reach the placement optimizer only through internal/engine, never by
# importing internal/core directly (driver: cmd/importguard). Metric lint:
# registered series names and docs/OBSERVABILITY.md must agree in both
# directions (driver: cmd/metriclint).
lint:
	$(GO) run ./cmd/importguard
	$(GO) run ./cmd/metriclint

# Cross-incarnation conformance: the same trace replayed through the
# simulator scheme, the in-process cluster and a live HTTP gateway chain must
# agree on every request's serving node and placement set, under the race
# detector (suite: internal/conformance).
conformance:
	$(GO) test -race -count=1 ./internal/conformance/

# Data-plane conformance: full-body hashing across the gateway chain
# (streamed bodies byte-identical to the origin's synthetic payloads),
# Range-segmented large-object reassembly at zero audit violations, and
# disk-spill round trips served without an origin fetch (suite:
# internal/conformance, TestDataPlane*; spec: docs/DATAPLANE.md).
dataplane:
	$(GO) test -race -count=1 -run 'TestDataPlane' ./internal/conformance/

# Rolling-reconfiguration smoke (not tier-1): upgrade the 100-node default
# cascade one batch at a time under sustained load; the job fails on any
# audit violation, a hit-rate dip beyond 5 percentage points, or a vacuous
# cost ledger (driver: cmd/cascadesim -exp rolling).
rolling:
	$(GO) run ./cmd/cascadesim -exp rolling -arch enroute \
		-objects 2000 -requests 30000 -clients 200 -servers 40

# Coherency gate: the generation substrate's unit suite, the gateway's
# invalidation/header/spill/snapshot paths and the cluster's concurrent
# write hammer under the race detector, then a CAS-strict load run — any
# response served below a completed write's generation fails the build.
# (The cross-incarnation coherency conformance replay is covered by the
# `conformance` target, which runs the whole suite.)
coherency:
	$(GO) test -race -count=1 ./internal/coherency/
	$(GO) test -race -count=1 -run 'Coherency|Invalidat|Stale|Snapshot' \
		./internal/httpgw/ ./internal/runtime/
	$(GO) run ./cmd/cascadeload -requests 3000 -warmup 500 -users 4 \
		-objects 1000 -capacity 2MB -nodes 3 -shards 8 -seed 1 \
		-write-ratio 0.05

# Observability smoke: boot a real origin → gateway → edge chain, scrape the
# Prometheus endpoints, read one request's two passes and their attributes
# back from the hops' /cascade/debug/spans dumps
# (driver: cmd/observesmoke; docs/OBSERVABILITY.md documents the series).
observe:
	$(GO) run ./cmd/observesmoke -go $(GO)

# Fuzz smoke: ten seconds of coverage-guided input against the one binary
# frame decoder — it must never panic, and must accept only frames that
# re-encode to the bytes they were decoded from — then ten against the
# eviction heap: any byte string decodes to a HeapStore op sequence whose
# victim order, CostLoss values and keys must match a full-sort reference
# (minimization is capped: by default the fuzzer spends up to a minute
# shrinking each coverage-expanding input, here the whole smoke).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/httpgw/
	$(GO) test -run '^$$' -fuzz FuzzHeapStoreOps -fuzztime 10s -fuzzminimizetime 20x ./internal/cache/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# bench/ is its own module (`replace cascade => ../`), so `go build ./...`
# at the root never compiles it: an exported field it reads could be deleted
# and tier-1 would still pass. Vet and run it here (every workload at 1/200
# scale, a few seconds).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCH_TIME) -run=^$$ . ./internal/core ./internal/cache | tee $(BENCH_OUT)
	$(GO) run ./cmd/benchcheck -update -in $(BENCH_OUT)

# The gate repeats each benchmark and judges the best run: noise from a
# loaded machine only ever inflates ns/op, so the minimum is the fair
# estimate against a baseline that was recorded on an idle one.
bench-check:
	$(GO) test -bench='BenchmarkSimulatorThroughput|BenchmarkClusterThroughput' -benchmem -benchtime=$(BENCH_TIME) -count=4 -run=^$$ . | tee $(BENCH_OUT)
	$(GO) run ./cmd/benchcheck -in $(BENCH_OUT)

# End-to-end latency SLO gate: cascadeload drives an in-process 3-gateway
# chain (sharded, binary framing) with a Zipf closed loop and emits
# benchmark-format percentile lines; benchcheck compares p99 against the
# committed baseline in BENCH_2.json. Only the p99 line gates — p999 of a
# smoke-sized run is a handful of samples and would flap. Methodology:
# docs/PERFORMANCE.md.
loadtest:
	$(GO) run ./cmd/cascadeload -requests 4000 -warmup 1000 -users 4 \
		-objects 2000 -capacity 2MB -nodes 3 -shards 8 -seed 1 \
		-bench-out $(LOADTEST_OUT)
	$(GO) run ./cmd/benchcheck -in $(LOADTEST_OUT) \
		-gate BenchmarkCascadeLoadP99 -threshold $(SLO_THRESHOLD) \
		-allocs-ceiling "" -bytes-ceiling ""

# Live SLO gate: cascademon (the federating monitor console) watches an
# in-process origin → 3-gateway chain under closed-loop load and must pass
# at the declared SLOs — and fail when the hit-ratio floor is raised above
# what any cascade can reach (negative test). Runs the exact shipping
# monitor loop (cmd/cascademon run()); docs/OBSERVABILITY.md declares the
# SLOs and burn-rate discipline.
slo:
	$(GO) test -race -count=1 -run 'TestSLOGate' ./cmd/cascademon/
