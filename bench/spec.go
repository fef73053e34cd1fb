package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// users is the closed-loop client count of every concurrent workload. The
// sandbox has two cores; more users than cores measures the Go scheduler,
// fewer leaves the second core to the servers alone.
const users = 2

// kind selects the incarnation a workload drives.
type kind int

const (
	kindGateway kind = iota // HTTP chain over loopback listeners
	kindCluster             // runtime.Cluster, in-process
	kindSim                 // sim.Simulator replay, single goroutine
)

// workload is one benchmark input set. Rates are the prototype throughput
// on the reference sandbox; they only size the pre-generated request
// streams and the count-based traced passes, never the measured window.
type workload struct {
	name string
	kind kind
	rate float64 // nominal operations per second

	// Gateway chain shape.
	objects    int     // catalog size
	objSize    int     // bytes per object
	nodeBytes  int64   // cache capacity per node
	warm       int     // warm-up operations (also cluster/sim)
	writeRatio float64 // share of operations that are invalidations
	segment    int64   // origin SegmentThreshold = SegmentSize (0 = off)

	why string // one line for BENCHMARK.json
}

var workloads = []workload{
	{name: "gw_hit", kind: kindGateway, rate: 38000, objects: 400, objSize: 4 << 10, nodeBytes: 2 << 20, warm: 5000,
		why: "every GET is a front-node hit over one loopback hop: handler, node lock and net/http do the work; codec, upstream client and placement do none"},
	{name: "gw_miss", kind: kindGateway, rate: 6500, objects: 50000, objSize: 4 << 10, nodeBytes: 1 << 20, warm: 8000,
		why: "a catalog 200 times a node's cache: most GETs cross all four hops, so frames, UpMiss/DownStep, NCL eviction and store.Put dominate and the hit path does little"},
	{name: "gw_write", kind: kindGateway, rate: 11000, objects: 2000, objSize: 4 << 10, nodeBytes: 2 << 20, warm: 8000, writeRatio: 0.05,
		why: "CAS coherency with 5% invalidations beside the reads: floor checks, stale self-heal and invalidation tails that read-only workloads never run"},
	{name: "gw_large", kind: kindGateway, rate: 750, objects: 200, objSize: 1 << 20, nodeBytes: 32 << 20, warm: 500, segment: 256 << 10,
		why: "1 MiB objects in 256 KiB segments: body bytes through store, relay and reassembly dominate; per-request protocol cost is diluted about 250 times"},
	{name: "cluster_get", kind: kindCluster, rate: 450000, objects: 20000, warm: 200000,
		why: "40-node tree cluster, no HTTP at all: engine, placement DP and shard locks are the whole cost, and both protocol passes run on most requests"},
	{name: "sim_replay", kind: kindSim, rate: 115000, objects: 20000, warm: 100000,
		why: "the paper's own single-threaded replay loop on the en-route topology: the scheme-to-engine surface, deterministic, so two replays must agree bit for bit"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number. Every run prints every declared metric of
// its trace mode; a per-layer metric whose layer the workload never crosses
// reads 0.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is one end_to_end / per_layer entry of BENCHMARK.json. Bound
// is the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression; per-layer metrics carry
// none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the cascade sees. Every workload reports
// every one; none is ever zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"throughput_rps", "1/s", higher, 0.20},
	{"req_p50_us", "us", lower, 0.20},
	{"req_p95_us", "us", lower, 0.25},
	{"payload_mb_per_s", "MB/s", higher, 0.20},
	{"byte_hit_ratio", "ratio", higher, 0.10},
	{"live_heap_mb", "MB", lower, 0.10},
}

// perLayer is the traced run's vocabulary: span self times, counter
// deltas, the isolated ladder and what is derived from them.
var perLayer = func() []metricSpec {
	var m []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			m = append(m, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	// Traced pass: median self time per span name.
	add("us", lower, "httpgw.hop0.self_us", "httpgw.hop1.self_us", "httpgw.hop2.self_us", "httpgw.origin.self_us",
		"loopback.client.self_us", "loopback.hop0.self_us", "loopback.hop1.self_us", "loopback.hop2.self_us")
	// Connections opened during the traced pass (httptrace).
	add("count", lower, "client.dials", "loopback.hop0.dials", "loopback.hop1.dials", "loopback.hop2.dials")
	// Counter movement during the traced pass.
	add("count", higher, "httpgw.hop0.requests", "httpgw.hop0.hits", "httpgw.hop1.hits", "httpgw.hop2.hits")
	add("count", lower, "httpgw.hop1.requests", "httpgw.hop2.requests", "httpgw.origin.requests",
		"httpgw.hop0.inserts", "httpgw.hop1.inserts", "httpgw.hop2.inserts", "httpgw.bad_headers",
		"engine.lock_waits", "engine.evictions",
		"coherency.stale_hits", "coherency.invalidations", "coherency.cas_conflicts")
	add("bytes", lower, "store.mem_bytes")
	// Untraced reference pass of the traced run.
	add("us", lower, "client.p99_us", "client.p999_us", "client.write_p50_us", "client.write_p95_us")
	add("bytes", lower, "client.alloc_bytes_per_req")
	add("ms", lower, "client.gc_pause_ms")
	add("ratio", higher, "trace.overhead_ratio")
	add("ratio", lower, "trace.byte_hit_drift", "trace.per_hop_drift")
	// Ladder: each layer's public calls in isolation.
	add("ns", lower, "core.optimize_ns", "cache.insert_evict_ns",
		"engine.lookup_ns", "engine.upmiss_ns", "engine.decide_ns", "engine.downstep_place_ns", "engine.downstep_pass_ns",
		"store.put_ns", "store.get_ns", "store.spill_ns", "store.disk_get_ns",
		"coherency.floor_ns", "coherency.apply_ns",
		"httpgw.handler_hit_ns", "httpgw.origin_ns", "httpgw.chain_miss_ns", "httpgw.chain_miss_text_ns",
		"loopback.rtt_ns")
	add("ratio", higher, "ladder.hit_coverage", "ladder.miss_coverage")
	// In-process workloads.
	add("ns", lower, "runtime.get_ns", "sim.process_ns")
	add("count", lower, "runtime.msgs_per_req", "sim.mean_hops")
	add("ratio", higher, "runtime.hit_ratio", "span.sampled_overhead_ratio")
	add("bytes", lower, "runtime.alloc_bytes_per_req", "sim.alloc_bytes_per_req")
	add("s", lower, "sim.model_latency_s")
	return m
}()

func unitsOf(specs []metricSpec) map[string]string {
	u := make(map[string]string, len(specs))
	for _, s := range specs {
		u[s.Name] = s.Unit
	}
	return u
}

var (
	endToEndUnits = unitsOf(endToEnd)
	perLayerUnits = unitsOf(perLayer)
)

// benchSpec is BENCHMARK.json. The program is the source of its content
// (-spec prints it); bench_test.go holds the committed file to it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 12

func currentSpec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

// result is one run's outcome: the contract's last-line object plus, for
// multi-run modes, which run it was.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Trace     *int              `json:"trace,omitempty"`
	Seed      *int64            `json:"seed,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"-"` // printed to stderr; the contract fixes the keys
}

// set stores one metric under its declared unit; an undeclared name is a
// bug in this program.
func (r *result) set(units map[string]string, name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// maxErrors bounds the failure messages a run keeps; the counts are exact.
const maxErrors = 8

// checks is a system's output-check tally: operations checked, operations
// that failed, and the first few reasons. Safe for concurrent use.
type checks struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

func (c *checks) noteFailure(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// absorb folds a system's tally into the run's result.
func (r *result) absorb(c *checks) {
	r.Attempted += c.attempted.Load()
	if n := c.failed.Load(); n > 0 {
		r.Failed += n
		r.Correct = false
	}
	for _, e := range c.errs {
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, e)
		}
	}
}

// fail records a correctness failure that is not tied to one request (an
// auditor violation, a determinism mismatch, a malformed span tree).
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}
