# Tier-1 verification gate: everything a change must pass before merging.
# `make check` = vet + lint + build + the bench module's own tests + every
# package's tests under the race detector + the hot-path allocation ceilings
# + observability, fuzz, rolling-reconfiguration and CAS-coherency smokes
# + a re-run of the paper's figures against the committed CSVs.
# Timings are not gated here: a speed claim is judged on alternating
# parent/change pairs of bench/run.sh (docs/PERFORMANCE.md).

GO ?= go

.PHONY: check vet lint build bench-module test race allocs observe fuzz conformance dataplane rolling coherency reproduce slo loc

check: vet lint build bench-module race allocs observe fuzz rolling coherency reproduce

# Format gate: `gofmt -l .` must print nothing. Then cmd/lint, one pass
# over the tree with five checks: import boundaries (the incarnations reach
# internal/core only through internal/engine; the packages below them import
# little), metric registrations against docs/OBSERVABILITY.md in both
# directions, function length (120 lines, or a ratcheted ceiling), size
# (`make loc`'s total at or below a committed ceiling) and reachability
# (every exported name of the root package and internal/... is used outside
# its package). Its tests run the same checks under `go test ./...`.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/lint

# Cross-incarnation conformance: the same trace replayed through the
# simulator scheme, the in-process cluster and a live HTTP gateway chain must
# agree on every request's serving node and placement set, under the race
# detector (suite: internal/conformance). A focused run — `race` already
# covers it, as it does `dataplane` and `slo` below.
conformance:
	$(GO) test -race -count=1 ./internal/conformance/

# Data-plane conformance: full-body hashing across the gateway chain
# (streamed bodies byte-identical to the origin's synthetic payloads),
# Range-segmented large-object reassembly at zero audit violations, and
# disk-spill round trips served without an origin fetch (suite:
# internal/conformance, TestDataPlane*; spec: docs/DATAPLANE.md) — then the
# data-plane tests of the package that owns the code: segment reassembly
# outcomes (status, length, and generation — writes that race a reassembly
# in CAS, PSI and TTL modes), the marker memo, a drained client-facing node,
# the origin's validator memo and ranged Dir-mode reads, spill, relay,
# hostile-length and hostile-geometry handling, and degraded answers (a
# large object whole, the marker kept and no down step one hop down).
dataplane:
	$(GO) test -race -count=1 -run 'TestDataPlane' ./internal/conformance/
	$(GO) test -race -count=1 -run 'TestSegment|TestReassembl|TestMarkerMemo|TestDrainedEdge|TestPassThrough|TestOldPeerMarker|TestOrigin|TestDirOrigin|TestSpill|TestRelay|TestReadBody|TestHostile|TestDegraded' ./internal/httpgw/

# Rolling-reconfiguration smoke (not tier-1): upgrade the 100-node default
# cascade one batch at a time under sustained load; the job fails on any
# audit violation, a hit-rate dip beyond 5 percentage points, or a vacuous
# cost ledger (driver: cmd/cascadesim -exp rolling). Then the control plane
# both incarnations run (internal/controlplane: the membership Manager and
# the probe threshold machine), under the race detector: its own suite, the
# cluster's drain/admit cycle against the simulator
# (TestDrainAdmitCycleConforms), and the gateway's admin endpoints, its
# upstream slot's one health machine (probes and failing exchanges, the
# cooldown trial, a probed-down upstream held down under traffic), an admit
# refused while a drain runs and the epoch and event records of a scripted
# transition sequence (internal/httpgw).
rolling:
	$(GO) run ./cmd/cascadesim -exp rolling -arch enroute \
		-objects 2000 -requests 30000 -clients 200 -servers 40
	$(GO) test -race -count=1 ./internal/controlplane/
	$(GO) test -race -count=1 -run 'TestDrainAdmitCycleConforms' ./internal/conformance/
	$(GO) test -race -count=1 -run 'TestAdmin|TestUpstreamProber|TestUpstreamFailures|TestProbedDown|TestAdmitDuringDrainRefused|TestControlPlaneRecord' ./internal/httpgw/

# Coherency gate: a CAS-strict load run against an in-process 3-gateway
# chain — any response served below a completed write's generation fails the
# build — then, for objects above the segment threshold, which that run has
# none of: concurrent large GETs and writes through a 3-hop CAS chain over a
# Dir-mode origin whose file is rewritten with every write (every complete
# body must be one generation's bytes, none below a completed write), and
# the generation rows of the reassembly table — then the gateway's hop steps
# run concurrently with no node lock around them: GETs, TTL revalidations,
# invalidations and drain/admit cycles through a sharded 3-node CAS chain
# with spill tiers, every node's bytes matching its descriptors at the end
# and the drained node empty after every drain. (The generation substrate's
# unit suite, the gateway's invalidation paths, the cluster's concurrent
# write hammer and the cross-incarnation coherency replay — its last stage a
# segmented object — are ordinary tests; `race` runs them, and these.)
coherency:
	$(GO) run ./cmd/cascadeload -requests 3000 -warmup 500 -users 4 \
		-objects 1000 -capacity 2MB -nodes 3 -shards 8 -seed 1 \
		-write-ratio 0.05
	$(GO) test -race -count=1 -run 'TestSegmentedWriteHammer|TestGatewayStepsHammer|TestReassemblyGenerations' ./internal/httpgw/

# Reproduction gate: re-run every figure of the paper's evaluation and fail
# if any cell drifts more than 5% from the committed results/*.csv — the
# tables EXPERIMENTS.md quotes and TestCommittedFiguresOrderCoordBest reads
# (about 45 s on two cores; the replay is seed-deterministic, so drift means
# the code changed what it computes).
reproduce:
	$(GO) run ./cmd/cascadesim -exp figs -parallel -baseline results > /dev/null

# Observability smoke: boot a real origin → gateway → edge chain, scrape the
# Prometheus endpoints, read one request's two passes and their attributes
# back from the hops' /cascade/debug/spans dumps, and an origin-served
# request's decide span back from the origin's
# (driver: cmd/observesmoke; docs/OBSERVABILITY.md documents the series).
observe:
	$(GO) run ./cmd/observesmoke -go $(GO)

# Fuzz smoke: ten seconds of coverage-guided input against the textual wire
# decoders — parsePath (X-Cascade-Path) and parseDecision
# (X-Cascade-Decision) must never panic, and must accept only bounded,
# finite input that re-encodes to what was parsed, a decision also in the
# form a hop forwards (its own counter before the bytes as they came) — then ten
# against the segment protocol's three small parsers: whatever
# parseSegmentRequest, parseSegmentedMarker or parseByteRange accepts must be
# bounded (no offset overflows, no object of more than store.MaxSegments
# segments) and re-encode to what was parsed — then five against the node's
# serving loop: any bytes after a taken-over request must not panic it, and it
# must serve only a prefix of the requests net/http's server would hand its
# handler, cap each head at net/http's limit, close on malformation and leave
# no goroutine — then five against the edge take-over, differentially: any
# bytes after a first GET must reach the handler as the same requests, and
# draw the same answers (Date's value aside), as from net/http — then five
# against the upstream client: any bytes as an upstream's answer, relayed
# through copyStream into a socket, must not panic it, forward no byte beyond
# what the final answer declares and holds, pool the connection only after a
# keep-alive HTTP/1.1 answer a plain parser reads whole and leave no
# goroutine — then ten
# against the eviction heap: any byte string decodes to a HeapStore op
# sequence whose victim order, CostLoss values and keys must match a
# full-sort reference, then five against the heap's ID index: any byte
# string decodes to puts, deletes and lookups that must agree with a Go map
# and leave the table tombstone-free, then ten against the payload generator: any (obj,
# size, lo, hi) must yield the bytes of the serial recurrence, then ten
# against the fused upstream step: any byte string decodes to get / place /
# pass / invalidate / expire ops, in every coherency mode, on which
# nodeState.UpStep must leave results, both stores and every metric exactly
# as LookupFresh followed by UpMiss does (minimization is capped: by default
# the fuzzer spends up to a minute shrinking each coverage-expanding input,
# here the whole smoke).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWireText -fuzztime 10s -fuzzminimizetime 20x ./internal/httpgw/
	$(GO) test -run '^$$' -fuzz FuzzSegmentHeaders -fuzztime 10s -fuzzminimizetime 20x ./internal/httpgw/
	$(GO) test -run '^$$' -fuzz FuzzHopConn -fuzztime 5s -fuzzminimizetime 20x ./internal/httpgw/
	$(GO) test -run '^$$' -fuzz FuzzEdgeConn -fuzztime 5s -fuzzminimizetime 20x ./internal/httpgw/
	$(GO) test -run '^$$' -fuzz FuzzHopResponse -fuzztime 5s -fuzzminimizetime 20x ./internal/httpgw/
	$(GO) test -run '^$$' -fuzz FuzzHeapStoreOps -fuzztime 10s -fuzzminimizetime 20x ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzIndexOps -fuzztime 5s -fuzzminimizetime 20x ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzSyntheticRange -fuzztime 10s -fuzzminimizetime 20x ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzUpStep -fuzztime 10s -fuzzminimizetime 20x ./internal/engine/

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

# Size report: non-test Go lines per package of the root module (bench/,
# hidden and testdata directories excluded, as cmd/lint does) and their
# total — the number ROADMAP's deletion targets are stated in. `make lint`
# gates the total: cmd/lint's maxLines is its ceiling, and the tool prints
# the same total.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.*' -not -path '*/testdata/*' -not -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

race:
	$(GO) test -race -count=1 ./...

# The race detector makes sync.Pool drop entries, so TestHotPathAllocs (0
# allocs/op on the simulator and cluster hot paths) skips itself under
# `race`, and so do TestReassemblyAllocs (a cached 1 MiB object served
# from four segment hits allocates < 64 KiB) and TestFrontNodeHitAllocs (a
# hit at the client-facing node allocates its response header values and
# nothing for the empty decision it carries); this runs them without.
allocs:
	$(GO) test -count=1 -run '^TestHotPathAllocs$$' .
	$(GO) test -count=1 -run '^(TestReassemblyAllocs|TestFrontNodeHitAllocs)$$' ./internal/httpgw/

# Live SLO gate: cascademon (the federating monitor console) watches an
# in-process origin → 3-gateway chain under closed-loop load and must pass
# at the declared SLOs — and fail when the hit-ratio floor is raised above
# what any cascade can reach (negative test). Runs the exact shipping
# monitor loop (cmd/cascademon run()); docs/OBSERVABILITY.md declares the
# SLOs and burn-rate discipline.
slo:
	$(GO) test -race -count=1 -run 'TestSLOGate' ./cmd/cascademon/
