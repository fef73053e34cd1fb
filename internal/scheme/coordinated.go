package scheme

import (
	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/freq"
	"cascade/internal/model"
	"cascade/internal/span"
)

// Coordinated is the paper's proposed scheme (§2.3): object placement and
// replacement decided jointly for all caches on a request's delivery path.
//
// The protocol itself lives in internal/engine; this type is the replay
// simulator's single-goroutine owner of an engine.Walk over one
// engine.Sharded per cache, each with one shard (step-for-step an unsharded
// node). Every Process is one walk: the request's upstream pass collects
// each hop's piggybacked (f_i, l_i, link cost) record or §2.4 tag, the
// serving node A_0 (first cache holding the object, or the origin) solves
// the §2.2 dynamic program, and the response's downstream pass caches the
// object where instructed and updates the d-caches' miss penalties
// elsewhere. The scheme answers the walk's deliveries (a draining node is
// routed around, every other node is live) and turns the walk's result
// into an Outcome.
type Coordinated struct {
	// nodes holds every configured cache, indexed by node ID (nil where
	// no cache has that ID).
	nodes []*replayNode

	// walk is the one request walk, reused across Process calls; its
	// Decide options hold the monotone clamp and the Theorem 2 prune.
	walk   engine.Walk
	placed []int

	// windowK is the sliding-window size for descriptors this scheme
	// creates (paper default 3); dfac builds the d-caches.
	windowK int
	dfac    dcache.Factory

	// spanTracer, when set, emits cascade-wide phase spans into per-node
	// rings (tail-sampled; nil disables and the hot path pays only nil
	// checks), which keep the nodes' event records too. ringFor is the
	// deposit closure, allocated once. The auditor and ledger live in the
	// walk's Decide options; the rings, auditor and ledger are nil-guarded
	// in the engine, so the default replay stays allocation-free.
	spanTracer *span.Tracer
	spanCap    int
	ringFor    func(model.NodeID) *span.Ring

	// coherency state (nil auth = coherency off, the default): the
	// origin-side generation authority, the enforced mode and TTL
	// lifetime. invOne carries explicit pushes.
	auth        *coherency.Authority
	cohMode     coherency.Mode
	cohLifetime float64
	invOne      [1]coherency.Invalidation
}

// replayNode is one cache of the replay: its protocol state, whether it is
// mid-departure (see controlplane.go), and its span ring (nil when off).
type replayNode struct {
	st       *engine.Sharded
	draining bool
	ring     *span.Ring
}

// NewCoordinated returns an unconfigured coordinated scheme with monotone
// frequency clamping enabled.
func NewCoordinated() *Coordinated {
	s := &Coordinated{dfac: dcache.NewFactory, windowK: freq.DefaultK}
	s.ringFor = s.SpanRing
	s.walk.Decide.ClampMonotone = true
	return s
}

// SetClampMonotone toggles the monotone frequency clamp (default on): it
// restores f_1 ≥ … ≥ f_n on the piggybacked frequency profile before
// optimizing (sliding-window noise can transiently violate the containment
// property the model guarantees).
func (s *Coordinated) SetClampMonotone(v bool) { s.walk.Decide.ClampMonotone = v }

// SetTheorem2Prune toggles pre-DP pruning of locally non-beneficial
// candidates (f·m < l; default off). By Theorem 2 the optimal solution never
// contains such nodes, so the placement is identical either way — the
// prune only shrinks the DP input (the paper uses the property to bound
// d-cache requirements).
func (s *Coordinated) SetTheorem2Prune(v bool) { s.walk.Decide.Theorem2Prune = v }

// SetWindowK overrides the sliding-window size of descriptors the scheme
// creates (paper default 3). Call before Configure.
func (s *Coordinated) SetWindowK(k int) { s.windowK = k }

// SetDCacheFactory selects the d-cache implementation (heap LFU by
// default; dcache.NewLRUStacksFactory for the paper's O(1) variant). Call
// before Configure.
func (s *Coordinated) SetDCacheFactory(f dcache.Factory) { s.dfac = f }

// SetAuditor attaches an online invariant auditor (nil disables, the
// default). Call before Configure.
func (s *Coordinated) SetAuditor(a *audit.Auditor) { s.walk.Decide.Audit = a }

// SetLedger attaches a predicted-vs-realized cost ledger (nil disables,
// the default). Call before Configure.
func (s *Coordinated) SetLedger(l *audit.Ledger) { s.walk.Decide.Ledger = l }

// SetSpans attaches a cascade-wide span tracer, giving every node a span
// ring retaining the last capacity records: sampled spans and the node's
// event records — invalidations, stale hits, revalidations and audit
// violations (nil tracer disables, the default). Callable before or after
// Configure.
func (s *Coordinated) SetSpans(tr *span.Tracer, capacity int) {
	s.spanTracer = tr
	s.spanCap = capacity
	if tr != nil {
		for _, nd := range s.nodes {
			if nd != nil {
				nd.ring = span.NewRing(capacity)
				nd.st.SetRing(nd.ring)
			}
		}
	}
}

// node returns a configured cache, nil for an unknown ID.
func (s *Coordinated) node(n model.NodeID) *replayNode {
	if n < 0 || int(n) >= len(s.nodes) {
		return nil
	}
	return s.nodes[n]
}

// SpanNodes returns the IDs of every node holding a span ring (empty when
// span tracing is off).
func (s *Coordinated) SpanNodes() []model.NodeID {
	var out []model.NodeID
	for _, nd := range s.nodes {
		if nd != nil && nd.ring != nil {
			out = append(out, nd.st.Node())
		}
	}
	return out
}

// SpanRing returns a node's span ring, or nil when span tracing is off or
// the node unknown.
func (s *Coordinated) SpanRing(n model.NodeID) *span.Ring {
	if nd := s.node(n); nd != nil {
		return nd.ring
	}
	return nil
}

// SetCoherency attaches the origin-side generation authority and selects
// the mode every node enforces (lifetime is the TTL freshness lifetime in
// seconds; ignored by other modes). Callable before or after Configure; a
// nil authority turns coherency off.
func (s *Coordinated) SetCoherency(auth *coherency.Authority, mode coherency.Mode, lifetime float64) {
	s.auth = auth
	s.cohMode = mode
	s.cohLifetime = lifetime
	s.walk.Auth, s.walk.Mode = auth, mode
	for _, n := range s.nodes {
		if n != nil {
			n.st.SetCoherency(s.newView())
		}
	}
}

// newView builds a node's coherency view, nil when coherency is off.
func (s *Coordinated) newView() *coherency.NodeView {
	if s.auth == nil {
		return nil
	}
	return coherency.NewNodeView(s.cohMode, s.cohLifetime)
}

// Authority returns the attached generation authority (nil when coherency
// is off).
func (s *Coordinated) Authority() *coherency.Authority { return s.auth }

// CoherencyView returns a node's coherency view, or nil.
func (s *Coordinated) CoherencyView(n model.NodeID) *coherency.NodeView {
	if nd := s.node(n); nd != nil {
		return nd.st.Coherency()
	}
	return nil
}

// Invalidate records a write of obj at time now: the authority bumps its
// generation and — in validating modes — the invalidation is pushed to
// every node synchronously (the explicit /cascade/admin/invalidate path;
// the cursor does not advance, so piggybacked tails still deliver any
// entries a node missed). Returns the new generation (0 when coherency is
// off).
func (s *Coordinated) Invalidate(obj model.ObjectID, now float64) uint64 {
	if s.auth == nil {
		return 0
	}
	gen, seq := s.auth.Bump(obj)
	if s.cohMode.Validates() {
		s.invOne[0] = coherency.Invalidation{Seq: seq, Obj: obj, Gen: gen}
		for _, n := range s.nodes {
			if n != nil && !n.draining {
				n.st.ApplyInvalidations(s.invOne[:], 0, now)
			}
		}
	}
	return gen
}

// Auditor returns the attached auditor (nil when auditing is off).
func (s *Coordinated) Auditor() *audit.Auditor { return s.walk.Decide.Audit }

// Ledger returns the attached cost ledger (nil when accounting is off).
func (s *Coordinated) Ledger() *audit.Ledger { return s.walk.Decide.Ledger }

// Name implements Scheme.
func (s *Coordinated) Name() string { return "COORD" }

// Configure implements Scheme.
func (s *Coordinated) Configure(budgets map[model.NodeID]NodeBudget) {
	size := 0
	for n := range budgets {
		size = max(size, int(n)+1)
	}
	s.nodes = make([]*replayNode, size)
	for n, b := range budgets {
		nd := &replayNode{}
		if s.spanTracer != nil {
			nd.ring = span.NewRing(s.spanCap)
		}
		nd.st = engine.NewSharded(engine.ShardedConfig{
			Node:          n,
			CacheBytes:    b.CacheBytes,
			DCacheEntries: b.DCacheEntries,
			DCacheFactory: s.dfac,
			WindowK:       s.windowK,
			Pooled:        true,
			Ring:          nd.ring,
			Audit:         s.Auditor(),
			Ledger:        s.Ledger(),
			Coherency:     s.newView(),
		})
		s.nodes[n] = nd
	}
	if a := s.Auditor(); a != nil {
		// Replay is single-threaded, so the sink may read the node map
		// directly: every invariant failure lands in the offending node's
		// span ring with full context.
		engine.RecordViolations(a, s.ringFor)
	}
}

// Process implements Scheme: one walk over the path. The replay loop is
// this incarnation's edge, so the request's root span opens here.
func (s *Coordinated) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	w := &s.walk
	w.Obj, w.Size, w.Now = obj, size, now
	w.Route, w.Links = path.Nodes, path.UpCost
	edge := model.NoNode
	if len(path.Nodes) > 0 {
		edge = path.Nodes[0]
	}
	w.Trace = s.spanTracer.Begin(edge, -1, now)
	s.placed = s.placed[:0]
	w.Run((*replayRouter)(s))
	s.spanTracer.Collect(w.Trace, now, s.ringFor)
	w.Decide.Audit.Publish(&w.Checks)

	// Message accounting: every hop whose d-cache held the descriptor
	// piggybacked it upward (candidates and cannot-fit alike; the "no
	// descriptor" tag costs nothing), the response carries the placement
	// instructions and, from the origin, the invalidation tail.
	piggyback := int64(len(w.Chosen))*4 + int64(len(w.Tail))*invalidationWireBytes
	for i := range w.Cands {
		if w.Cands[i].Tag != engine.TagNoDescriptor {
			piggyback += descriptorWireBytes
		}
	}
	return Outcome{HitIndex: w.Serve, Placed: s.placed, PiggybackBytes: piggyback, ServedGen: w.Gen, Refetch: w.Refetch}
}

// replayRouter answers the walk for the replay: a draining node is routed
// around as a pure relay, every other node is live, and placements are
// collected as path indices.
type replayRouter Coordinated

func (r *replayRouter) Deliver(hop int) (engine.Hop, engine.Verdict) {
	n := r.nodes[r.walk.Route[hop]]
	if n.draining {
		return engine.Hop{}, engine.RouteAround
	}
	return engine.Hop{St: n.st}, engine.Live
}

func (r *replayRouter) Placed(hop, _ int) { r.placed = append(r.placed, hop) }

// Cache exposes a node's main store for tests.
func (s *Coordinated) Cache(n model.NodeID) *cache.HeapStore {
	if nd := s.node(n); nd != nil {
		return nd.st.StoreAt(0)
	}
	return nil
}

// DCache exposes a node's descriptor cache for tests.
func (s *Coordinated) DCache(n model.NodeID) dcache.DCache {
	if nd := s.node(n); nd != nil {
		return nd.st.DCacheAt(0)
	}
	return nil
}

// PooledDescriptors reports how many recycled descriptors the nodes'
// pools hold together, for tests.
func (s *Coordinated) PooledDescriptors() int {
	total := 0
	for _, nd := range s.nodes {
		if nd != nil {
			total += nd.st.ShardStatsAt(0).Pooled
		}
	}
	return total
}
