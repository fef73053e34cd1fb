// Package runtime implements the coordinated caching protocol of paper
// §2.3 as a concurrent in-process cluster: every cache node owns its stores
// behind per-shard locks, and each Get walks its path twice on the calling
// goroutine, exactly as the paper describes — a request traveling up the
// distribution tree collecting piggybacked (f, m, l) descriptors, and a
// response traveling down carrying the placement decision and the
// accumulated miss-penalty counter (walk.go). Any number of Gets run
// concurrently; the cluster itself starts no goroutines.
//
// The trace-driven simulator (package sim) answers "does the algorithm
// win?"; this package answers "does the protocol deploy?". Both share the
// same cache substrate (packages cache, dcache, core), and the test suite
// cross-validates them: replaying a request sequence through a Cluster one
// request at a time produces exactly the hits and placements of the
// simulation scheme.
//
// The package is failure-aware. Individual nodes can crash (Fail) and
// restart empty (Recover); both passes of the protocol route around dead
// or saturated hops by folding the skipped link cost into the next miss
// penalty — the §2.4 special tag already lets the DP tolerate an absent
// hop record, so a dead cache simply becomes a more expensive link. An
// injected fault (Config.Fault) is evaluated at every hop delivery of the
// walk: a crash or saturation verdict routes around the hop, a delay is
// waited out inline, and a dropped message abandons the walk where it
// stands — the caller degrades to an origin-direct result at full path
// cost. docs/PROTOCOL.md "Failure semantics" specifies the behaviour.
package runtime

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/controlplane"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
	"cascade/internal/topology"
)

// Result reports how the cluster served one request.
type Result struct {
	// ServedBy is the node that supplied the object, or model.NoNode for
	// the origin server.
	ServedBy model.NodeID
	// Cost is the total access cost (sum of traversed link costs, scaled
	// to the object's size). Links of dead hops that were routed around
	// are included — skipping a node does not skip its wire.
	Cost float64
	// Hops is the number of live links the request traversed upward
	// (diagnostic; dead hops folded into Cost are not re-counted here).
	Hops int
	// Placed lists the nodes that inserted a new copy while the response
	// traveled down.
	Placed []model.NodeID
	// Degraded marks a request that could not traverse the cascade — all
	// caches down, or a protocol message lost — and was satisfied as an
	// origin-direct fetch at full path cost.
	Degraded bool
	// ServedGen is the coherency generation of the served copy (the
	// origin's current generation for origin-served requests; zero when
	// coherency is off). Under ModeCAS it is never below the origin's
	// generation at the instant the Get started.
	ServedGen uint64
}

// Config assembles a Cluster.
type Config struct {
	// Network supplies distribution-tree routes between attachment
	// points.
	Network topology.Network
	// CacheBytes is each node's main-cache capacity.
	CacheBytes int64
	// DCacheEntries bounds each node's descriptor cache.
	DCacheEntries int
	// AvgObjectSize scales link costs per object (cost model §3.2); when
	// zero, link costs are used unscaled.
	AvgObjectSize float64
	// Clock supplies the current time in seconds for frequency
	// estimation. Defaults to wall-clock seconds since cluster start.
	// Deterministic tests inject a logical clock.
	Clock func() float64
	// DCacheFactory selects the d-cache implementation (heap LFU by
	// default).
	DCacheFactory dcache.Factory
	// Shards partitions each node's stores by object hash (rounded up to a
	// power of two; default 1). With one shard a node behaves byte-for-byte
	// like the unsharded engine; more shards let concurrent Gets on
	// different objects proceed without contending on a node lock. See
	// docs/PERFORMANCE.md.
	Shards int
	// Fault, when set, is consulted on every hop delivery of a walk, in
	// both passes — the chaos hook (message drop/delay, crash-on-nth,
	// saturation). Keys are node IDs.
	Fault *fault.Injector
	// EnableAudit turns on the online invariant auditor and the
	// predicted-vs-realized cost ledger: violations and ledger state are
	// exported through the cluster's metrics registry
	// (cascade_audit_*, cascade_ledger_* series).
	EnableAudit bool
	// SpillDir, when non-empty, gives every node a disk-backed spill tier
	// under <SpillDir>/node-<id>: NCL evictions park their payload in
	// per-object CRC-checked files instead of dropping it, and a later
	// request for a spilled object is served from disk (and promoted back
	// behind a fresh insertion) without traversing the rest of the
	// cascade. A recovered or re-admitted node adopts whatever complete
	// files its directory holds, exactly like a process restart.
	SpillDir string
	// SpillBytes bounds each node's disk tier (0 = unbounded).
	SpillBytes int64
	// SpillTTL expires disk copies after this many Clock seconds
	// (0 = never).
	SpillTTL float64
	// CoherencyMode turns on engine-native coherency across the cluster
	// (default ModeNone = off): per-object generations are stamped on
	// every placement, validated on every lookup (ModePSI/ModeCAS), and
	// origin responses piggyback the authority's recent invalidation tail.
	// See docs/PROTOCOL.md "Coherency".
	CoherencyMode coherency.Mode
	// CoherencyLifetime is the ModeTTL copy lifetime in Clock seconds.
	CoherencyLifetime float64
	// Authority is the origin's write authority — the generation source
	// shared with whoever performs writes (an HTTP gateway's origin, a
	// test driver). When nil and CoherencyMode is not ModeNone the
	// cluster creates its own (writes then go through
	// Cluster.Invalidate).
	Authority *coherency.Authority
	// SpanCapacity, when > 0, turns on cascade-wide span tracing: every
	// node slot gets a span ring retaining the last N records — sampled
	// spans and the slot's event records (DumpSpans). Spans are stamped with the request's protocol clock,
	// so cluster spans are point-in-time markers of phase order rather
	// than durations (the HTTP gateway incarnation measures real time).
	SpanCapacity int
	// SpanSample is the tail-sampling rate in [0,1]: the fraction of
	// non-forced traces kept (error/stale traces are always kept).
	SpanSample float64
	// SpanSlow is the forced-keep latency threshold in seconds (0
	// disables the slow check).
	SpanSlow float64
}

// Stats are cluster-wide counters, readable at any time.
type Stats struct {
	Requests  int64 // Gets issued
	CacheHits int64 // requests served by some cache
	Messages  int64 // protocol messages: one per live hop delivery, either pass
	Inserts   int64 // object copies written by downstream passes

	RoutedAround    int64 // hops skipped because the node was down or saturated
	FaultDrops      int64 // messages lost by the fault injector
	Failures        int64 // node crashes (Fail or injected)
	Recoveries      int64 // node restarts
	OriginFallbacks int64 // degraded Gets served origin-direct

	Spills     int64 // evicted payloads parked in a node's disk spill tier
	SpillHits  int64 // requests served from a disk spill tier
	Promotions int64 // spilled objects promoted back into a node's cache
}

// Cluster is a set of cache nodes implementing coordinated caching over a
// cascaded architecture.
type Cluster struct {
	cfg   Config
	slots []atomic.Pointer[node]
	// mu orders node lifecycle changes (Recover, Admit, Drain's entry
	// check) against Close; closed is written under it. Get takes no lock:
	// it registers with guard and then reads closed (see Get and Close).
	mu     sync.Mutex
	closed atomic.Bool

	// walks recycles per-request walk state and its buffers (scaled link
	// costs, hop records, the decider's DP tables, victim IDs): a walk runs
	// on whichever goroutine serves the request, so it is pooled rather
	// than owned by any one node.
	walks sync.Pool

	// reg exports every instrument below in the Prometheus text format
	// (Metrics); nodeInst holds the per-node instruments, indexed by slot,
	// so counters survive a node's crash and recovery.
	reg      *metrics.Registry
	nodeInst []nodeInstruments

	// auditor/ledger exist when Config.EnableAudit is set; both are
	// nil-guarded throughout.
	auditor *audit.Auditor
	ledger  *audit.Ledger

	// cp tracks membership and health; guard is the one registry of Gets
	// in flight: a drain fences on it so no request is stranded mid-cascade
	// on the old routing view, and Close waits on it for every Get to return.
	cp    *controlplane.Manager
	guard *controlplane.EpochGuard

	// auth is the origin's write authority and cohViews the per-slot
	// generation floors (both nil when CoherencyMode is ModeNone). Views
	// belong to the slot, not the node, so crash/recover cycles keep the
	// node's coherency knowledge — a restarted real node would sync the
	// origin's invalidation log before serving, and the slot-owned view
	// is what lets a recovered node reject stale spill files it adopts.
	auth       *coherency.Authority
	cohViews   []*coherency.NodeView
	cohMetrics *coherency.Metrics

	// spanTracer/spanRings exist when Config.SpanCapacity > 0 (nil
	// otherwise — the hot paths pay only nil checks). A ring keeps its
	// slot's sampled spans and event records (crashes, recoveries,
	// membership and health transitions, coherency and disk-tier events,
	// audit violations). Rings belong to the slot, not the node, so
	// crash/recover cycles keep history (and record the transitions
	// themselves). spanRingFor is the deposit closure, allocated once.
	spanTracer  *span.Tracer
	spanRings   []*span.Ring
	spanRingFor func(model.NodeID) *span.Ring

	requests        *metrics.Counter
	cacheHits       *metrics.Counter
	messages        *metrics.Counter
	inserts         *metrics.Counter
	routedAround    *metrics.Counter
	faultDrops      *metrics.Counter
	failures        *metrics.Counter
	recoveries      *metrics.Counter
	originFallbacks *metrics.Counter
	spills          *metrics.Counter
	spillHits       *metrics.Counter
	promotions      *metrics.Counter
}

// nodeInstruments are one node's operational counters. They belong to the
// cluster slot, not the node, so Fail/Recover cycles keep history.
type nodeInstruments struct {
	routedAround *metrics.Counter
	inserts      *metrics.Counter
	evictions    *metrics.Counter
}

// NewCluster builds one cache node per cache of the network. It starts no
// goroutines: all protocol work runs on the goroutines that call Get.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("runtime: network is required")
	}
	if cfg.CacheBytes < 0 || cfg.DCacheEntries < 0 {
		return nil, fmt.Errorf("runtime: negative capacities")
	}
	if cfg.Clock == nil {
		start := time.Now()
		cfg.Clock = func() float64 { return time.Since(start).Seconds() }
	}
	if cfg.DCacheFactory == nil {
		cfg.DCacheFactory = dcache.NewFactory
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("runtime: spill dir: %w", err)
		}
	}
	cfg.Shards = engine.NormalizeShards(cfg.Shards)
	c := &Cluster{cfg: cfg, slots: make([]atomic.Pointer[node], cfg.Network.NumCaches())}
	c.walks.New = func() any { return new(walk) }
	c.cp = controlplane.NewManager(len(c.slots))
	c.guard = controlplane.NewEpochGuard()
	c.cp.SetOnEvent(func(ev controlplane.Event) {
		e := span.Event(span.PhaseMembership, ev.Node, c.cfg.Clock())
		e.A, e.N = float64(ev.Epoch), int(ev.Member)
		if ev.Kind == controlplane.EventHealthChange {
			e.Phase, e.N = span.PhaseHealth, int(ev.Health)
		}
		c.spanRingFor(ev.Node).Add(e)
	})
	if cfg.SpanCapacity > 0 {
		c.spanTracer = span.NewTracer(span.Policy{Rate: cfg.SpanSample, Slow: cfg.SpanSlow})
		c.spanRings = make([]*span.Ring, len(c.slots))
		for i := range c.spanRings {
			c.spanRings[i] = span.NewRing(cfg.SpanCapacity)
		}
	}
	c.spanRingFor = func(id model.NodeID) *span.Ring {
		if id >= 0 && int(id) < len(c.spanRings) {
			return c.spanRings[id]
		}
		return nil
	}
	if cfg.CoherencyMode != coherency.ModeNone {
		c.auth = cfg.Authority
		if c.auth == nil {
			c.auth = coherency.NewAuthority()
		}
		c.cohViews = make([]*coherency.NodeView, len(c.slots))
		for i := range c.cohViews {
			c.cohViews[i] = coherency.NewNodeView(cfg.CoherencyMode, cfg.CoherencyLifetime)
		}
	}
	c.initMetrics()
	if cfg.EnableAudit {
		c.auditor = audit.New(c.reg)
		c.ledger = audit.NewLedger()
		// Violations land in the violating node's span ring with full
		// context (dropped when span rings are off).
		engine.RecordViolations(c.auditor, c.spanRingFor)
		for i := range c.slots {
			c.ledger.RegisterNode(c.reg, model.NodeID(i), metrics.L("node", strconv.Itoa(i)))
		}
	}
	for i := range c.slots {
		c.slots[i].Store(c.newNode(model.NodeID(i)))
	}
	return c, nil
}

// initMetrics registers every cluster and per-node instrument. Called once
// before any node exists, so the hot path only ever touches live atomic
// cells.
func (c *Cluster) initMetrics() {
	c.reg = metrics.NewRegistry()
	c.requests = c.reg.Counter("cascade_cluster_requests_total", "Gets issued against the cluster.")
	c.cacheHits = c.reg.Counter("cascade_cluster_cache_hits_total", "Requests served by some cache (not the origin).")
	c.messages = c.reg.Counter("cascade_cluster_messages_total", "Protocol messages delivered hop to hop (one per live hop, each pass).")
	c.inserts = c.reg.Counter("cascade_cluster_inserts_total", "Object copies written by downstream passes.")
	c.routedAround = c.reg.Counter("cascade_cluster_routed_around_total", "Hops skipped because the node was down or saturated.")
	c.faultDrops = c.reg.Counter("cascade_cluster_fault_drops_total", "Messages lost by the fault injector.")
	c.failures = c.reg.Counter("cascade_cluster_failures_total", "Node crashes (Fail or injected).")
	c.recoveries = c.reg.Counter("cascade_cluster_recoveries_total", "Node restarts.")
	c.originFallbacks = c.reg.Counter("cascade_cluster_origin_fallbacks_total", "Degraded Gets served origin-direct.")
	c.spills = c.reg.Counter("cascade_cluster_spills_total", "Evicted payloads parked in a node's disk spill tier.")
	c.spillHits = c.reg.Counter("cascade_cluster_spill_hits_total", "Requests served from a node's disk spill tier.")
	c.promotions = c.reg.Counter("cascade_cluster_promotions_total", "Spilled objects promoted back into a node's cache.")
	if c.cohViews != nil {
		c.cohMetrics = coherency.NewMetrics(c.reg)
		for _, v := range c.cohViews {
			v.SetMetrics(c.cohMetrics)
		}
	}

	c.nodeInst = make([]nodeInstruments, len(c.slots))
	for i := range c.nodeInst {
		i := i
		nl := metrics.L("node", strconv.Itoa(i))
		c.nodeInst[i] = nodeInstruments{
			routedAround: c.reg.Counter("cascade_node_routed_around_total", "Times this node was skipped because it was down or saturated.", nl),
			inserts:      c.reg.Counter("cascade_node_inserts_total", "Object copies this node inserted.", nl),
			evictions:    c.reg.Counter("cascade_node_evictions_total", "Objects this node evicted to make room.", nl),
		}
		c.reg.GaugeFunc("cascade_node_up", "1 while the node is up.", func() float64 {
			if c.aliveNode(model.NodeID(i)) {
				return 1
			}
			return 0
		}, nl)
		if c.cfg.SpillDir != "" {
			bodyStats := func(f func(s store.Stats) float64) func() float64 {
				return func() float64 {
					if n := c.node(model.NodeID(i)); n != nil && n.bodies != nil {
						return f(n.bodies.Stats())
					}
					return 0
				}
			}
			c.reg.CounterFunc("cascade_node_spill_bytes_total", "Bytes of NCL-evicted payloads spilled to this node's disk tier.",
				bodyStats(func(s store.Stats) float64 { return float64(s.SpillBytesTotal) }), nl)
			c.reg.CounterFunc("cascade_node_spill_hits_total", "Requests this node served from its disk spill tier.",
				bodyStats(func(s store.Stats) float64 { return float64(s.DiskHits) }), nl)
			c.reg.GaugeFunc("cascade_node_spill_used_bytes", "Bytes currently held by this node's disk spill tier.",
				bodyStats(func(s store.Stats) float64 { return float64(s.DiskBytes) }), nl)
		}
		for s := 0; s < c.cfg.Shards; s++ {
			s := s
			sl := metrics.L("shard", strconv.Itoa(s))
			c.reg.CounterFunc("cascade_node_shard_inserts_total", "Object copies this shard inserted.", func() float64 {
				if n := c.node(model.NodeID(i)); n != nil {
					return float64(n.st.ShardInserts(s))
				}
				return 0
			}, nl, sl)
			c.reg.CounterFunc("cascade_node_shard_evictions_total", "Victims this shard evicted to make room.", func() float64 {
				if n := c.node(model.NodeID(i)); n != nil {
					return float64(n.st.ShardEvictions(s))
				}
				return 0
			}, nl, sl)
			c.reg.CounterFunc("cascade_node_shard_lock_waits_total", "Contended acquisitions of this shard's lock.", func() float64 {
				if n := c.node(model.NodeID(i)); n != nil {
					return float64(n.st.ShardLockWaits(s))
				}
				return 0
			}, nl, sl)
		}
	}
	c.cp.RegisterMetrics(c.reg)
}

// Metrics returns the cluster's metrics registry, ready to be served with
// WritePrometheus (see docs/OBSERVABILITY.md for the series).
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// newNode builds a fresh (empty) node for a slot. With spill configured
// the node gets a tiered body store over its per-node directory; a
// replacement node (Recover, Admit) adopts whatever complete spill files
// the previous incarnation left, exactly like a process restart. A tier
// that fails to open leaves the node without one — the data plane then
// drops evicted bytes rather than blocking the recovery.
func (c *Cluster) newNode(id model.NodeID) *node {
	view := c.cohView(id)
	var bodies *store.Tiered
	if c.cfg.SpillDir != "" {
		scfg := store.Config{
			Dir:       filepath.Join(c.cfg.SpillDir, "node-"+strconv.Itoa(int(id))),
			DiskBytes: c.cfg.SpillBytes,
			DiskTTL:   c.cfg.SpillTTL,
			Clock:     c.cfg.Clock,
		}
		if view != nil && view.Mode().Validates() {
			// The disk tier validates persisted generations against the
			// slot's floor: a spill file an invalidation already covered is
			// rejected at adoption and on read.
			scfg.MinGen = view.Floor
		}
		if b, err := store.NewTiered(scfg); err == nil {
			bodies = b
		}
	}
	return &node{
		bodies: bodies,
		st: engine.NewSharded(engine.ShardedConfig{
			Node:          id,
			Shards:        c.cfg.Shards,
			CacheBytes:    c.cfg.CacheBytes,
			DCacheEntries: c.cfg.DCacheEntries,
			DCacheFactory: c.cfg.DCacheFactory,
			Pooled:        true,
			Ring:          c.spanRingFor(id),
			Audit:         c.auditor,
			Ledger:        c.ledger,
			Coherency:     view,
		}),
	}
}

// cohView returns a slot's coherency view, nil when coherency is off or the
// ID is out of range.
func (c *Cluster) cohView(id model.NodeID) *coherency.NodeView {
	if c.cohViews == nil || int(id) < 0 || int(id) >= len(c.cohViews) {
		return nil
	}
	return c.cohViews[id]
}

// CoherencyView exposes a node's generation floors (conformance and tests);
// nil when coherency is off.
func (c *Cluster) CoherencyView(id model.NodeID) *coherency.NodeView { return c.cohView(id) }

// Authority returns the origin's write authority, nil when coherency is
// off.
func (c *Cluster) Authority() *coherency.Authority { return c.auth }

// Invalidate is the origin-driven write path: it bumps the object's
// generation at the authority and — in validating modes — pushes the entry
// to every routable node synchronously, so copies anywhere in the cascade
// (memory or spilled to disk) can never be served at the old generation
// again. Head stays untouched at the nodes (the push is out-of-band; the
// piggybacked tail still advances their cursors), and the new generation is
// returned. Zero when coherency is off.
func (c *Cluster) Invalidate(obj model.ObjectID) uint64 {
	if c.auth == nil {
		return 0
	}
	gen, seq := c.auth.Bump(obj)
	if c.cfg.CoherencyMode.Validates() {
		now := c.cfg.Clock()
		inv := [1]coherency.Invalidation{{Seq: seq, Obj: obj, Gen: gen}}
		var dropped [1]model.ObjectID
		for i := range c.slots {
			id := model.NodeID(i)
			if n := c.node(id); n != nil && !n.down.Load() && c.cp.Routable(id) {
				engine.Hop{St: n.st, Tier: n.bodies}.ApplyInvalidations(inv[:], 0, now, dropped[:0])
			}
		}
	}
	return gen
}

// Auditor returns the online invariant auditor, nil unless
// Config.EnableAudit was set.
func (c *Cluster) Auditor() *audit.Auditor { return c.auditor }

// Ledger returns the predicted-vs-realized cost ledger, nil unless
// Config.EnableAudit was set.
func (c *Cluster) Ledger() *audit.Ledger { return c.ledger }

// SpanRing returns a node's span ring (nil when span tracing is off or
// the ID out of range).
func (c *Cluster) SpanRing(id model.NodeID) *span.Ring { return c.spanRingFor(id) }

// DumpSpans captures a node's span ring for inspection. Safe when span
// tracing is off (returns an empty snapshot).
func (c *Cluster) DumpSpans(id model.NodeID) span.Snapshot {
	return c.spanRingFor(id).TakeSnapshot(id)
}

// Close rejects new requests, waits for every in-flight Get to return
// (a walk blocks only on an injected delay, which is finite), then marks
// all nodes down. The cluster must not be used afterwards.
//
// closed is set before the epoch moves, and a Get reads it only after
// registering under the epoch it found: a Get counted in an older epoch is
// waited for whether or not it saw the flag, and one that registers after
// the wait's scan — in either epoch — is ordered after the flag and turns
// back without touching a node.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return
	}
	c.closed.Store(true)
	c.mu.Unlock()
	c.guard.WaitBefore(c.guard.Bump())
	for i := range c.slots {
		if n := c.slots[i].Load(); n != nil {
			n.stop()
		}
	}
}

// node returns the current node of a slot, nil for an unknown ID.
func (c *Cluster) node(id model.NodeID) *node {
	if int(id) < 0 || int(id) >= len(c.slots) {
		return nil
	}
	return c.slots[id].Load()
}

// DCacheContains reports whether a node's d-cache currently holds the
// object's descriptor. For conformance and test inspection only: callers
// must quiesce the cluster (no concurrent Gets) before relying on the
// answer.
func (c *Cluster) DCacheContains(id model.NodeID, obj model.ObjectID) bool {
	n := c.node(id)
	return n != nil && n.st.DCacheContains(obj)
}

// CheckBytes reports a disagreement between a node's bytes and its
// descriptors (engine.Hop.CheckBytes); nil for an unknown or untiered node.
// For conformance and test inspection only: quiesce the cluster first.
func (c *Cluster) CheckBytes(id model.NodeID) error {
	if n := c.node(id); n != nil {
		return engine.Hop{St: n.st, Tier: n.bodies}.CheckBytes()
	}
	return nil
}

// aliveNode reports whether a node is up.
func (c *Cluster) aliveNode(id model.NodeID) bool {
	n := c.node(id)
	return n != nil && !n.down.Load()
}

// routable is the routing predicate for new requests: the node is up AND
// the control plane agrees (Active membership, not probed Down). In-flight
// requests keep the view they entered with; the epoch guard decides when
// that old view has fully drained.
func (c *Cluster) routable(id model.NodeID) bool {
	return c.aliveNode(id) && c.cp.Routable(id)
}

// ControlPlane exposes the cluster's membership/health manager (for health
// checkers, admin surfaces and tests).
func (c *Cluster) ControlPlane() *controlplane.Manager { return c.cp }

// StartHealthChecker runs an active prober over the cluster in a background
// goroutine until stop is closed. A nil cfg.Probe gets the default liveness
// probe: the node's slot is up. The checker feeds the control plane, which
// in turn gates routing (healthy → suspect → down), independently of the
// passive route-around that Compact performs per request.
func (c *Cluster) StartHealthChecker(cfg controlplane.CheckerConfig, stop <-chan struct{}) *controlplane.Checker {
	if cfg.Probe == nil {
		cfg.Probe = c.aliveNode
	}
	ck := controlplane.NewChecker(c.cp, cfg)
	go ck.Run(stop)
	return ck
}

// SetHealth records a node's health classification — the write path of a
// health checker or an operator override. A Down node leaves the routing
// view for new requests; in-flight requests finish on their old view.
func (c *Cluster) SetHealth(id model.NodeID, h controlplane.Health) bool {
	return c.cp.SetHealth(id, h)
}

// Drain removes a node cooperatively. The sequence: the node leaves the
// routing view (new Gets route around it, folding its link cost exactly as
// they do for a crashed hop), the epoch guard waits until every request
// that entered on the old view has finished, the node's descriptors are
// extracted in NCL eviction order and it detaches, and the spill lands in
// the parent's d-cache — so the knowledge of what was worth caching
// survives the departure even though the bytes do not. Reports whether the
// node was drained; a node that already crashed drains without a spill.
// The hand-off is a direct call behind the fence, so nothing in it can
// block and the context is not consulted.
func (c *Cluster) Drain(_ context.Context, id model.NodeID) bool {
	if c.closed.Load() || int(id) < 0 || int(id) >= len(c.slots) {
		return false
	}
	if !c.cp.StartDrain(id) {
		return false
	}

	// Fence: wait for every Get that may still hold a route through id.
	e := c.guard.Bump()
	c.guard.WaitBefore(e)

	// Cooperative hand-off, then detach. A crashed node forfeits the spill
	// — its state is unreachable, exactly as in a crash.
	var snaps []cache.DescriptorSnapshot
	if n := c.node(id); n != nil && !n.down.Load() {
		snaps = n.st.DrainDescriptors(c.cfg.Clock())
		if n.bodies != nil {
			// Departing payloads park on disk: a later Admit of this slot
			// adopts the files and can promote instead of refetching.
			n.bodies.SpillAll()
		}
		n.stop()
	}
	c.cp.FinishDrain(id)
	if nd, ok := c.cfg.Network.(interface {
		SetNodeEnabled(model.NodeID, bool)
	}); ok {
		nd.SetNodeEnabled(id, false)
	}

	if len(snaps) > 0 {
		if pr, ok := c.cfg.Network.(interface {
			Parent(model.NodeID) model.NodeID
		}); ok {
			if pid := pr.Parent(id); pid != model.NoNode && int(pid) < len(c.slots) {
				if pn := c.node(pid); pn != nil && !pn.down.Load() {
					// Land the spill before Drain returns, so the very next
					// request already sees it; the shard locks make the call
					// safe against any concurrent traffic.
					pn.st.Absorb(snaps, c.cfg.Clock())
				}
			}
		}
	}
	return true
}

// Admit returns a previously drained node to service with fresh, empty
// stores (a departed node keeps no state; it warms up again under traffic).
// Reports whether the node was admitted — false when it is not currently
// Removed (use Recover for crashed-but-Active nodes).
func (c *Cluster) Admit(id model.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() || int(id) < 0 || int(id) >= len(c.slots) {
		return false
	}
	if !c.cp.Admit(id) {
		return false
	}
	if old := c.slots[id].Load(); old == nil || old.down.Load() {
		c.slots[id].Store(c.newNode(id))
	}
	if nd, ok := c.cfg.Network.(interface {
		SetNodeEnabled(model.NodeID, bool)
	}); ok {
		nd.SetNodeEnabled(id, true)
	}
	return true
}

// Fail crashes a node: it stops taking protocol steps and its cache state
// is gone (Recover restarts it empty, as a real process restart would).
// Requests route around it. Reports whether the node was alive.
func (c *Cluster) Fail(id model.NodeID) bool {
	n := c.node(id)
	if n == nil || !n.stop() {
		return false
	}
	c.failures.Add(1)
	c.spanRingFor(id).Add(span.Event(span.PhaseCrash, id, c.cfg.Clock()))
	return true
}

// Recover restarts a failed node with empty stores. Reports whether a
// restart happened (false if the node is alive, unknown, drained — use
// Admit for that — or the cluster is closed).
func (c *Cluster) Recover(id model.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() || int(id) < 0 || int(id) >= len(c.slots) {
		return false
	}
	if c.cp.StateOf(id) != controlplane.Active {
		return false
	}
	old := c.slots[id].Load()
	if old == nil || !old.down.Load() {
		return false
	}
	c.slots[id].Store(c.newNode(id))
	c.recoveries.Add(1)
	c.spanRingFor(id).Add(span.Event(span.PhaseRecover, id, c.cfg.Clock()))
	return true
}

// Failed lists the currently-failed nodes: nodes that are down without
// having been drained (a Removed node departed on purpose and is not a
// failure). The slice is sorted ascending and non-nil even when empty, so
// callers can range and serialize it without nil checks.
func (c *Cluster) Failed() []model.NodeID {
	out := make([]model.NodeID, 0)
	for i := range c.slots {
		id := model.NodeID(i)
		if !c.aliveNode(id) && c.cp.StateOf(id) != controlplane.Removed {
			out = append(out, id)
		}
	}
	return out
}

// Get requests an object on behalf of a client attached at clientNode from
// the origin server attached at serverNode, running both protocol passes on
// the calling goroutine. It returns ctx.Err() when ctx is already done on
// entry or ends while the walk waits out an injected delay; a walk that
// loses a message to the fault injector degrades to an origin-direct fetch.
// Concurrent Gets are safe; per-node state is guarded by its shard locks,
// and what a Get adds to the cluster-wide counters (Stats) it adds once,
// just before it returns.
func (c *Cluster) Get(ctx context.Context, clientNode, serverNode model.NodeID, obj model.ObjectID, size int64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Register under the current routing epoch: a reconfiguration bumps
	// the epoch and waits for older entries, so this request finishes on
	// the view it resolves below before any drained node detaches — and
	// Close waits the same way, so closed is read after registering.
	epoch := c.guard.Enter()
	defer c.guard.Exit(epoch)
	if c.closed.Load() {
		return Result{}, fmt.Errorf("runtime: cluster closed")
	}

	full := c.cfg.Network.Route(clientNode, serverNode)
	if len(full.Caches) == 0 {
		return Result{}, fmt.Errorf("runtime: no route between client node %d and server node %d", clientNode, serverNode)
	}
	w := c.walks.Get().(*walk)
	r, err := c.serve(ctx, w, full, obj, size)
	c.publish(w)
	c.walks.Put(w)
	return r, err
}

// serve routes one admitted request and runs its walk, counting into w.
func (c *Cluster) serve(ctx context.Context, w *walk, full topology.Route, obj model.ObjectID, size int64) (Result, error) {
	scale := 1.0
	if c.cfg.AvgObjectSize > 0 {
		scale = float64(size) / c.cfg.AvgObjectSize
	}
	originDirect := func() Result {
		total := 0.0
		for _, v := range full.UpCost {
			total += v
		}
		c.originFallbacks.Add(1)
		r := Result{ServedBy: model.NoNode, Cost: total * scale, Hops: full.Hops(), Degraded: true}
		if c.auth != nil {
			r.ServedGen = c.auth.Gen(obj)
		}
		return r
	}

	// Route around nodes already known to be down, draining, or probed
	// unhealthy; hops that fail mid-flight are skipped as the walk
	// discovers them (deliver).
	route, cut := full.Compact(c.routable)
	if cut.Skipped > 0 {
		w.count.routedAround += int64(cut.Skipped)
		for _, id := range full.Caches {
			if !c.routable(id) {
				c.nodeInst[id].routedAround.Inc()
			}
		}
	}
	if len(route.Caches) == 0 {
		// Every cache on the path is down: degrade immediately.
		return originDirect(), nil
	}

	r, err := c.runWalk(ctx, w, route, cut.Lead*scale, obj, size, scale)
	if err == errLost {
		// The cascade lost this request's message chain: the client
		// fetches straight from the origin instead.
		return originDirect(), nil
	}
	return r, err
}

// publish adds one finished request's counts to the cluster-wide counters
// and clears them in w. It runs on every exit of an admitted Get — served,
// degraded, lost or cancelled — so the counters lose nothing, and it is the
// only place the request path writes them: a Get costs each of these words
// one update, however many hops it crossed. Requests goes first, so no
// scrape finds more hits than requests.
func (c *Cluster) publish(w *walk) {
	n := &w.count
	c.requests.Add(1)
	if n.messages > 0 {
		c.messages.Add(n.messages)
	}
	if n.hit {
		c.cacheHits.Add(1)
	}
	if n.inserts > 0 {
		c.inserts.Add(n.inserts)
	}
	if n.routedAround > 0 {
		c.routedAround.Add(n.routedAround)
	}
	c.auditor.Publish(&w.Checks)
	*n = walkCounts{}
}

// Stats returns a snapshot of the cluster-wide counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Requests:        c.requests.Value(),
		CacheHits:       c.cacheHits.Value(),
		Messages:        c.messages.Value(),
		Inserts:         c.inserts.Value(),
		RoutedAround:    c.routedAround.Value(),
		FaultDrops:      c.faultDrops.Value(),
		Failures:        c.failures.Value(),
		Recoveries:      c.recoveries.Value(),
		OriginFallbacks: c.originFallbacks.Value(),
		Spills:          c.spills.Value(),
		SpillHits:       c.spillHits.Value(),
		Promotions:      c.promotions.Value(),
	}
}

// NodeMetrics is one node's operational accounting, readable at any time.
type NodeMetrics struct {
	Node model.NodeID
	Up   bool

	RoutedAround int64 // times requests skipped this node (down/saturated)
	Inserts      int64 // copies this node inserted
	Evictions    int64 // victims this node evicted to make room
}

// ClusterMetrics pairs the cluster-wide counters with per-node detail.
type ClusterMetrics struct {
	Stats Stats
	Nodes []NodeMetrics
}

// MetricsSnapshot captures the cluster-wide counters and every node's
// operational metrics. It is safe to call concurrently with Gets, Fail and
// Recover.
func (c *Cluster) MetricsSnapshot() ClusterMetrics {
	out := ClusterMetrics{Stats: c.Stats(), Nodes: make([]NodeMetrics, len(c.slots))}
	for i := range c.slots {
		inst := &c.nodeInst[i]
		out.Nodes[i] = NodeMetrics{
			Node:         model.NodeID(i),
			Up:           c.aliveNode(model.NodeID(i)),
			RoutedAround: inst.routedAround.Value(),
			Inserts:      inst.inserts.Value(),
			Evictions:    inst.evictions.Value(),
		}
	}
	return out
}
