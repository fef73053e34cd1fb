// Package cascade is a library-grade reproduction of "Coordinated
// Management of Cascaded Caches for Efficient Content Distribution" (Tang &
// Chanson, ICDE 2003).
//
// Content-delivery caches are usually cascaded: a request missing a
// lower-level cache is forwarded toward the origin server through further
// caches. The paper's contribution is to manage placement and replacement
// across the whole delivery path at once: requests piggyback each cache's
// frequency, miss-penalty and eviction-cost information; the serving node
// solves the placement problem exactly with an O(n²) dynamic program; the
// response carries the decision back down.
//
// The package exposes four layers:
//
//   - The placement optimizer (OptimizePlacement): the paper's
//     k-optimization dynamic program over (f_i, m_i, l_i) path profiles.
//   - The protocol engine (EngineCandidate, DecidePlacement): the
//     transport-agnostic per-node protocol steps and request walk every
//     incarnation — replay scheme, cluster, HTTP gateway — delegates to.
//   - Caching schemes (NewCoordinated, NewLRU, NewModulo, and NewScheme by
//     name for LNC-R, the LFU/GDS extras and the partial fleet): complete
//     per-node cache management algorithms implementing the Scheme
//     interface.
//   - Architectures (GenerateTiers, GenerateTree): the paper's en-route
//     (Tiers-style WAN/MAN topology, Table 1) and hierarchical (full O-ary
//     tree, Figure 5) networks.
//   - Workloads and simulation (NewGenerator, NewSimulator, RunSweep): the
//     synthetic Zipf trace substrate, the trace-driven simulator, and the
//     experiment harness regenerating every figure of the paper.
//
// Quickstart:
//
//	gen := cascade.NewGenerator(cascade.TraceConfig{Seed: 1})
//	net := cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(1)))
//	sim, _ := cascade.NewSimulator(cascade.SimConfig{
//		Scheme:            cascade.NewCoordinated(),
//		Network:           net,
//		Catalog:           gen.Catalog(),
//		RelativeCacheSize: 0.01,
//	})
//	summary, _ := sim.Run(gen, gen.Len()/2)
//	fmt.Println(summary.AvgLatency)
package cascade

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cascade/internal/analysis"
	"cascade/internal/coherency"
	"cascade/internal/core"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/experiment"
	"cascade/internal/httpgw"
	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/runtime"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/span"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// Identifier and record types shared across the library.
type (
	// ObjectID identifies a web object.
	ObjectID = model.ObjectID
	// NodeID identifies a cache/topology node.
	NodeID = model.NodeID
	// ClientID identifies a request-issuing client.
	ClientID = model.ClientID
	// Request is one trace record.
	Request = model.Request
)

// NoNode is the sentinel "no node" value (e.g. hierarchy server side).
const NoNode = model.NoNode

// Placement optimizer (paper §2.1–2.2).
type (
	// PathNode is one candidate cache on a delivery path: its observed
	// access frequency f, miss penalty m and eviction cost loss l.
	PathNode = core.Node
	// Placement is the optimizer's result: chosen indices and the
	// achieved reduction of total access cost.
	Placement = core.Placement
)

// OptimizePlacement solves the paper's n-optimization problem exactly: it
// returns the subset of path caches whose joint caching of the object
// maximizes the total access-cost reduction. Nodes are ordered from the
// serving point toward the client.
func OptimizePlacement(path []PathNode) Placement { return core.Optimize(path) }

// PlacementGain evaluates the Δcost objective for an arbitrary placement.
func PlacementGain(path []PathNode, indices []int) float64 { return core.Gain(path, indices) }

// Protocol engine (paper §2.2–2.4): the per-node protocol steps shared by
// all three incarnations. A transport carries EngineCandidate records up,
// calls DecidePlacement at the serving node and applies the decision on the
// way back down — see docs/PROTOCOL.md.
type (
	// EngineCandidate is one hop's piggybacked record on the upstream
	// pass: the (f, l, link) triple, or a §2.4 tag.
	EngineCandidate = engine.Candidate
	// EngineDecideOptions toggles the monotone frequency clamp and the
	// Theorem-2 prune of the placement decision.
	EngineDecideOptions = engine.DecideOptions
	// EngineServePoint locates the serving node for a placement decision.
	EngineServePoint = engine.ServePoint
)

// EngineTagCandidate tags a hop record that is a placement candidate.
const EngineTagCandidate = engine.TagCandidate

// DecidePlacement runs the serving node's placement decision (the §2.2 DP
// over piggybacked candidates, in wire order) and returns the chosen hop
// indices, ascending.
func DecidePlacement(cands []EngineCandidate, opts EngineDecideOptions, at EngineServePoint) []int {
	return engine.Decide(cands, opts, at)
}

// Caching schemes (paper §2.3 and §3.3).
type (
	// Scheme is a complete cache-management algorithm over a node set.
	Scheme = scheme.Scheme
	// SchemePath is a request's delivery path as seen by a scheme.
	SchemePath = scheme.Path
	// NodeBudget sizes one cache node (capacity, d-cache entries).
	NodeBudget = scheme.NodeBudget
)

// NewCoordinated returns the paper's coordinated placement+replacement
// scheme.
func NewCoordinated() *scheme.Coordinated { return scheme.NewCoordinated() }

// NewLRU returns the cache-everywhere LRU baseline.
func NewLRU() *scheme.LRU { return scheme.NewLRU() }

// NewModulo returns the MODULO baseline with the given cache radius.
func NewModulo(radius int) *scheme.Modulo { return scheme.NewModulo(radius) }

// NewLRU2H returns the extra admission-controlled LRU baseline (objects
// are cached only on their second sighting).
func NewLRU2H() *scheme.LRU2H { return scheme.NewLRU2H() }

// NewSchemeChecker wraps a scheme with per-request protocol invariant
// checking (test harness; panics on violation).
func NewSchemeChecker(inner Scheme) *scheme.Checker { return scheme.NewChecker(inner) }

// NewScheme constructs a scheme from its report name ("LRU", "MODULO(4)",
// "LNC-R", "COORD", "COORD@50%" — a fleet where that share of the nodes
// runs coordinated caching, the rest LRU — "LFU", "GDS", "LRU-2H").
func NewScheme(name string) (Scheme, error) { return scheme.New(name) }

// DCacheFactory selects a d-cache implementation for the schemes that use
// one (COORD, LNC-R): DCacheLFU is the heap-based default, DCacheLRUStacks
// the paper's O(1) LRU-stack organization (§2.4).
type DCacheFactory = dcache.Factory

// D-cache implementations.
var (
	// DCacheLFU builds the heap-based LFU d-cache.
	DCacheLFU DCacheFactory = dcache.NewFactory
	// DCacheLRUStacks builds the O(1) LRU-stack d-cache.
	DCacheLRUStacks DCacheFactory = dcache.NewLRUStacksFactory
)

// SchemeNames lists the canonical scheme names NewScheme accepts.
func SchemeNames() []string { return scheme.Names() }

// UniformBudgets builds the paper's equal-budget node configuration.
func UniformBudgets(nodes []NodeID, capacity int64, dcacheEntries int) map[NodeID]NodeBudget {
	return scheme.Uniform(nodes, capacity, dcacheEntries)
}

// Architectures (paper §3.2).
type (
	// Network is a cascaded caching architecture.
	Network = topology.Network
	// TiersConfig parameterizes the en-route topology generator.
	TiersConfig = topology.TiersConfig
	// TreeConfig parameterizes the hierarchical architecture.
	TreeConfig = topology.TreeConfig
	// HierarchyNetwork is the full O-ary cache tree.
	HierarchyNetwork = topology.Hierarchy
)

// WANNodeKind marks the en-route topology's backbone nodes.
const WANNodeKind = topology.WANNode

// DefaultTiersConfig returns the paper's Table 1 topology parameters.
func DefaultTiersConfig() TiersConfig { return topology.DefaultTiersConfig() }

// DefaultTreeConfig returns the paper's hierarchy parameters (depth 4,
// fanout 3, d = 8 ms, g = 5).
func DefaultTreeConfig() TreeConfig { return topology.DefaultTreeConfig() }

// GenerateTiers builds a random en-route topology in the style of the
// Tiers generator.
func GenerateTiers(cfg TiersConfig, r *rand.Rand) *topology.EnRoute {
	return topology.GenerateTiers(cfg, r)
}

// GenerateTree builds the hierarchical caching architecture.
func GenerateTree(cfg TreeConfig) *topology.Hierarchy { return topology.GenerateTree(cfg) }

// Workloads (paper §3.1, substituted per DESIGN.md).
type (
	// TraceConfig parameterizes the synthetic Zipf workload generator.
	TraceConfig = trace.Config
	// Generator streams a deterministic synthetic request trace.
	Generator = trace.Generator
	// Catalog is a workload's object universe.
	Catalog = trace.Catalog
)

// NewGenerator builds a synthetic workload generator.
func NewGenerator(cfg TraceConfig) *trace.Generator { return trace.NewGenerator(cfg) }

// NewTraceWriter starts writing a workload (catalog first) to the cascade
// text trace format.
func NewTraceWriter(w io.Writer, cat *Catalog) (*trace.Writer, error) {
	return trace.NewWriter(w, cat)
}

// NewTraceReader parses the catalog of a recorded trace and returns a
// reader streaming its requests.
func NewTraceReader(r io.Reader) (*trace.Reader, error) { return trace.NewReader(r) }

// SquidStats summarizes a Squid access-log conversion.
type SquidStats = trace.SquidStats

// WorkloadStats summarizes a recorded trace (fitted Zipf exponent, size
// profile, coverage).
type WorkloadStats = trace.Stats

// TraceStats scans a recorded trace and derives its workload statistics.
func TraceStats(r io.Reader) (WorkloadStats, error) { return trace.ComputeStats(r) }

// SubtraceStats summarizes a top-N subtrace extraction.
type SubtraceStats = trace.SubtraceStats

// ExtractTopObjects reproduces the paper's §3.1 subtracing: keep only the
// requests for the N most popular objects of a recorded trace, densely
// renumbered. The input must be re-openable (two passes).
func ExtractTopObjects(open func() (io.ReadCloser, error), w io.Writer, topN int) (SubtraceStats, error) {
	return trace.ExtractTopObjects(open, w, topN)
}

// MergeTraces k-way-merges several traces by timestamp into one, with
// identifier namespaces kept disjoint — the paper's §3.1 multi-proxy
// merge.
func MergeTraces(opens []func() (io.ReadCloser, error), w io.Writer) (int, error) {
	return trace.MergeTraces(opens, w)
}

// ConvertSquidLog turns a Squid native access.log into the cascade trace
// format — the bridge from real proxy logs (the role the Boeing traces
// played in the paper) to this repository's tooling.
func ConvertSquidLog(r io.Reader, w io.Writer) (SquidStats, error) {
	return trace.ConvertSquid(r, w)
}

// Workload abstracts a replayable request stream for the experiment
// harness.
type Workload = experiment.Workload

// FileWorkload validates a recorded trace file and returns a workload that
// replays it for every experiment cell.
func FileWorkload(path string) (Workload, error) { return experiment.FileWorkload(path) }

// Simulation and metrics (paper §3–4).
type (
	// SimConfig assembles one simulation run.
	SimConfig = sim.Config
	// Simulator replays a request stream through a scheme on a network.
	Simulator = sim.Simulator
	// Summary is a run's derived per-request averages.
	Summary = metrics.Summary
)

// NewSimulator validates the configuration and prepares the caches and
// attachments.
func NewSimulator(cfg SimConfig) (*sim.Simulator, error) { return sim.New(cfg) }

// Analytical approximations (IRM-based, complementing the simulator).
type (
	// AnalysisObject is one object for closed-form analysis (rate, size).
	AnalysisObject = analysis.Object
	// AnalysisPrediction is a hit-ratio estimate for one cache.
	AnalysisPrediction = analysis.Prediction
)

// StaticOptimalHitRatio predicts the best achievable single-cache hit
// ratio under the independent reference model (fractional-knapsack bound).
func StaticOptimalHitRatio(objs []AnalysisObject, capacity int64) AnalysisPrediction {
	return analysis.StaticOptimal(objs, capacity)
}

// CheLRUHitRatio predicts a single LRU cache's steady-state hit ratios via
// Che's approximation.
func CheLRUHitRatio(objs []AnalysisObject, capacity int64) (AnalysisPrediction, error) {
	return analysis.CheLRU(objs, capacity)
}

// CheLRUTreeHitRatios layers Che's approximation over a full O-ary tree of
// LRU caches (level 0 = leaves).
func CheLRUTreeHitRatios(objs []AnalysisObject, capacity int64, depth, fanout, leaves int) ([]AnalysisPrediction, error) {
	return analysis.CheLRUTree(objs, capacity, depth, fanout, leaves)
}

// Cache coherency substrate (the §2 freshness assumption, made a protocol
// concern): per-object generations owned by an origin-side authority,
// per-node generation floors raised by piggybacked or pushed invalidations,
// and read-side validation in strict mode.
type (
	// CoherencyMode selects the consistency mechanism (CoherencyNone,
	// CoherencyTTL, CoherencyPSI, CoherencyCAS).
	CoherencyMode = coherency.Mode
	// CoherencyConfig parameterizes the synthetic object-update process of
	// a coherency-enabled simulation run (SimConfig.Coherency).
	CoherencyConfig = coherency.Config
	// CoherencyAuthority is the origin-side generation authority: one
	// monotonic generation per object plus the invalidation log whose
	// tail origin responses piggyback.
	CoherencyAuthority = coherency.Authority
)

// Coherency modes.
const (
	// CoherencyNone is the paper's assumption: copies are always fresh.
	CoherencyNone = coherency.ModeNone
	// CoherencyTTL refetches copies older than a freshness lifetime.
	CoherencyTTL = coherency.ModeTTL
	// CoherencyPSI piggybacks server invalidations on origin responses.
	CoherencyPSI = coherency.ModePSI
	// CoherencyCAS is strict never-serve-stale: each request carries the
	// origin's current generation as a read floor and stale copies
	// self-heal to misses.
	CoherencyCAS = coherency.ModeCAS
)

// NewCoherencyAuthority builds an origin-side generation authority. The
// simulator builds its own for coherency runs (Simulator.Authority); use
// this when driving a Cluster or gateway chain directly.
func NewCoherencyAuthority() *CoherencyAuthority { return coherency.NewAuthority() }

// ParseCoherencyMode parses "none", "ttl", "psi" or "cas".
func ParseCoherencyMode(s string) (CoherencyMode, error) { return coherency.ParseMode(s) }

// Live protocol runtime (the deployable counterpart of the simulator).
type (
	// Cluster is a set of cache nodes implementing the coordinated
	// caching protocol for concurrent callers: each Get walks both
	// protocol passes on its own goroutine.
	Cluster = runtime.Cluster
	// ClusterConfig assembles a Cluster.
	ClusterConfig = runtime.Config
	// ClusterStats are cluster-wide counters, including failure-handling
	// accounting (routed-around hops, fault drops, origin fallbacks).
	ClusterStats = runtime.Stats
)

// NewCluster builds one cache node per cache of the network and starts no
// goroutines. The returned cluster serves concurrent Gets; Close shuts it
// down after in-flight requests drain. Cluster.Fail crashes a node (losing
// its state), Cluster.Recover restarts it empty; requests route around dead
// hops.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return runtime.NewCluster(cfg) }

// Cascade-wide span tracing: per-request protocol-phase spans under one
// 128-bit trace ID, propagated hop to hop and tail-sampled into per-node
// rings, which also keep each node's events — crashes, membership and
// health transitions, coherency and disk-tier events, audit violations
// — as zero-length records (docs/OBSERVABILITY.md).
type (
	// SpanPolicy declares a tracer's tail-sampling policy: the keep rate
	// for unremarkable traces and the forced-keep slow threshold.
	SpanPolicy = span.Policy
	// SpanSnapshot is the dump encoding of one node's span ring.
	SpanSnapshot = span.Snapshot
)

// DumpSpanRings replays the workload through coordinated caching with
// cascade-wide span tracing attached — tail sampling at rate, a per-node
// ring of the given capacity — and returns every node's span snapshot
// (cascadesim -span-dump).
func DumpSpanRings(arch Architecture, cfg ExperimentConfig, size float64, capacity int, rate float64) ([]SpanSnapshot, error) {
	return experiment.SpanDump(arch, cfg, size, capacity, rate)
}

// HTTP gateway incarnation of the protocol (piggybacking as headers).
type (
	// HTTPCacheNode is an http.Handler cache gateway; chain instances in
	// front of an HTTPOrigin to build a cascaded HTTP cache.
	HTTPCacheNode = httpgw.Node
	// HTTPOrigin is the content source handler.
	HTTPOrigin = httpgw.Origin
)

// Protocol header names used by the HTTP gateway.
const (
	// HTTPHeaderHit names the serving node ("origin" for the source).
	HTTPHeaderHit = httpgw.HeaderHit
	// HTTPHeaderGen carries a coherency generation: a CAS read floor on
	// requests, the served copy's generation on responses.
	HTTPHeaderGen = httpgw.HeaderGen
)

// ParseBytes parses a byte size as the gateway commands take one: a
// non-negative decimal integer, optionally followed by B, KB, MB or GB
// (binary multiples) in any case. A fraction, trailing garbage, a hex
// literal or a size past int64 is refused.
func ParseBytes(s string) (int64, error) {
	in := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(in, "GB"):
		mult, in = 1<<30, strings.TrimSuffix(in, "GB")
	case strings.HasSuffix(in, "MB"):
		mult, in = 1<<20, strings.TrimSuffix(in, "MB")
	case strings.HasSuffix(in, "KB"):
		mult, in = 1<<10, strings.TrimSuffix(in, "KB")
	case strings.HasSuffix(in, "B"):
		in = strings.TrimSuffix(in, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(in), 10, 64)
	switch {
	case err != nil:
		return 0, fmt.Errorf("size %q: %w", s, err)
	case n < 0:
		return 0, fmt.Errorf("negative size %q", s)
	case n > math.MaxInt64/mult:
		return 0, fmt.Errorf("size %q overflows int64", s)
	}
	return n * mult, nil
}

// DefaultUpstreamTimeout bounds gateway upstream fetches when no explicit
// Client is configured.
const DefaultUpstreamTimeout = httpgw.DefaultUpstreamTimeout

// HTTPServerIdleTimeout is a gateway server's IdleTimeout: longer than the
// upstream client keeps a connection idle, so the client never reuses one
// its upstream is closing.
const HTTPServerIdleTimeout = httpgw.ServerIdleTimeout

// NewHTTPUpstreamClient builds a gateway upstream client with a budget of
// timeout per exchange: keep-alive HTTP/1.1 connections of its own to every
// http:// upstream, a tuned HTTP transport to https:// ones
// (HTTPCacheNode.Client's default, with DefaultUpstreamTimeout).
func NewHTTPUpstreamClient(timeout time.Duration) *http.Client {
	return httpgw.NewUpstreamClient(timeout)
}

// NewHTTPCacheNode builds a gateway node: a cache of capacity bytes (plus a
// dEntries-descriptor d-cache) forwarding misses to upstream across a link
// of cost upCost.
func NewHTTPCacheNode(id NodeID, upstream string, upCost float64, capacity int64, dEntries int, clock func() float64) *HTTPCacheNode {
	return httpgw.NewNode(id, upstream, upCost, capacity, dEntries, clock)
}

// NewHTTPOrigin builds a synthetic origin handler; size maps objects to
// payload lengths. The origin decides placements for whole-chain misses;
// its node (HTTPOrigin.Node) audits them and serves the metrics and span
// routes on its listener, as a cache node does.
func NewHTTPOrigin(size func(ObjectID) int) *HTTPOrigin { return &httpgw.Origin{Size: size} }

// NewHTTPFileOrigin builds an origin handler serving files beneath dir, so
// a gateway chain can front arbitrary content trees.
func NewHTTPFileOrigin(dir string) *HTTPOrigin { return &httpgw.Origin{Dir: dir} }

// WallClock returns a seconds-since-start clock for live components.
func WallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Experiment harness (paper figures and studies).
type (
	// ExperimentConfig parameterizes a full evaluation.
	ExperimentConfig = experiment.Config
	// Architecture selects en-route or hierarchical caching.
	Architecture = experiment.Arch
	// Sweep is a (cache size × scheme) result grid.
	Sweep = experiment.Sweep
	// SweepCell is one simulation result within a sweep.
	SweepCell = experiment.Cell
	// Figure identifies one of the paper's evaluation figures.
	Figure = experiment.Figure
	// ResultTable is a formatted experiment result.
	ResultTable = experiment.Table
)

// Architecture values.
const (
	ArchEnRoute   = experiment.EnRoute
	ArchHierarchy = experiment.Hierarchy
)

// Study is one experiment beside the figures: the paper's Table 1, a study
// of its textual findings or an operational replay, run by
// Study.Run(arch, cfg, log) with its parameters fixed.
type Study = experiment.Study

// Studies lists every study in the order cascadesim runs them (cascadesim
// -list).
func Studies() []Study { return experiment.Studies }

// Figures lists every figure of the paper's evaluation section.
func Figures() []Figure { return experiment.Figures }

// FigureByID returns the figure definition for an ID like "fig6a".
func FigureByID(id string) (Figure, bool) { return experiment.FigureByID(id) }

// RunSweep simulates every (cache size, scheme) pair for one architecture.
func RunSweep(arch Architecture, cfg ExperimentConfig, progress func(SweepCell)) (*Sweep, error) {
	return experiment.RunSweep(arch, cfg, progress)
}

// Replicate runs one figure's sweep under several seeds and reports
// per-cell mean ± standard deviation — error bars for the paper's
// single-run plots.
func Replicate(arch Architecture, cfg ExperimentConfig, fig Figure, runs int) (ResultTable, error) {
	return experiment.Replicate(arch, cfg, fig, runs)
}

// BaselineDrift describes one result cell that moved beyond tolerance
// relative to a stored baseline CSV.
type BaselineDrift = experiment.Drift

// CompareBaselineCSV checks a result table against a previously exported
// CSV and returns the cells whose relative change exceeds tolerance.
func CompareBaselineCSV(t ResultTable, baseline io.Reader, tolerance float64) ([]BaselineDrift, error) {
	return experiment.CompareCSV(t, baseline, tolerance)
}

// WriteHTMLReport renders result tables as one self-contained HTML
// document with inline SVG charts.
func WriteHTMLReport(w io.Writer, title string, tables []ResultTable) error {
	return experiment.WriteHTMLReport(w, title, tables)
}
