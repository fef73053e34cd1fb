package scheme

import (
	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/flightrec"
	"cascade/internal/freq"
	"cascade/internal/model"
	"cascade/internal/span"
)

// Coordinated is the paper's proposed scheme (§2.3): object placement and
// replacement decided jointly for all caches on a request's delivery path.
//
// The protocol itself lives in internal/engine; this type is the replay
// simulator's adapter over it — it owns one engine.NodeState per cache and
// walks the delivery path sequentially:
//
//  1. Upstream pass (request message): engine.NodeState.UpStep probes each
//     cache and, on a miss, yields the hop's piggybacked candidate record
//     (f_i, l_i, link cost) — or the §2.4 "no descriptor" tag — for the
//     request's candidate vector.
//  2. The serving node A_0 (first cache holding the object, or the origin)
//     solves the n-optimization problem with the dynamic program of §2.2
//     via engine.Decider.Decide.
//  3. Downstream pass (response message): engine.NodeState.DownStep applies
//     the decision at each hop — caching the object where instructed
//     (resetting the miss-penalty counter and demoting evicted objects'
//     descriptors to the d-cache), updating the d-cache's stored miss
//     penalty elsewhere.
type Coordinated struct {
	nodes map[model.NodeID]*engine.NodeState

	// draining marks nodes mid-departure (see controlplane.go): they stay
	// on the path as relays but take no protocol steps.
	draining map[model.NodeID]bool

	// clampMonotone restores f_1 ≥ … ≥ f_n on the piggybacked frequency
	// profile before optimizing (sliding-window noise can transiently
	// violate the containment property the model guarantees).
	clampMonotone bool

	// theorem2Prune drops candidates whose replacement is not locally
	// beneficial (f·m < l) before running the DP. Theorem 2 guarantees
	// the optimal solution never contains such nodes, so pruning cannot
	// change the decision — it only shrinks the DP input (the paper uses
	// the property to bound d-cache requirements).
	theorem2Prune bool

	// windowK is the sliding-window size for descriptors this scheme
	// creates (paper default 3).
	windowK int

	dfac dcache.Factory

	// dec owns the DP tables, candidate scratch and monotone-clamp
	// buffers, so the per-call optimization allocates nothing.
	dec engine.Decider

	// scratch buffers reused across Process calls.
	cand   []engine.Candidate
	placed []int

	// pool recycles descriptors evicted by the d-caches.
	pool engine.DescPool

	// spanTracer, when set, emits cascade-wide phase spans into per-node
	// rings (tail-sampled; nil disables and the hot path pays only nil
	// checks). upSpan is the per-request upstream-span scratch, ringFor
	// the deposit closure allocated once.
	spanTracer *span.Tracer
	spanCap    int
	spanRings  map[model.NodeID]*span.Ring
	upSpan     []span.SpanID
	ringFor    func(model.NodeID) *span.Ring

	// auditor/ledger, when set, verify protocol invariants and account
	// predicted-vs-realized placement gains online. flightCap > 0 gives
	// every node a protocol flight recorder of that capacity. All three
	// are nil-guarded in the engine, so the default replay stays
	// allocation-free.
	auditor   *audit.Auditor
	ledger    *audit.Ledger
	flightCap int

	// coherency state (nil auth = coherency off, the default): the
	// origin-side generation authority, the enforced mode, and one
	// NodeView per node attached to its engine state. invBuf is the
	// reusable PSI-tail scratch; invOne carries explicit pushes.
	auth        *coherency.Authority
	cohMode     coherency.Mode
	cohLifetime float64
	invBuf      []coherency.Invalidation
	invOne      [1]coherency.Invalidation
}

// NewCoordinated returns an unconfigured coordinated scheme with monotone
// frequency clamping enabled.
func NewCoordinated() *Coordinated {
	return &Coordinated{clampMonotone: true, dfac: dcache.NewFactory, windowK: freq.DefaultK}
}

// SetClampMonotone toggles the monotone frequency clamp (default on).
func (s *Coordinated) SetClampMonotone(v bool) { s.clampMonotone = v }

// SetTheorem2Prune toggles pre-DP pruning of locally non-beneficial
// candidates (default off; by Theorem 2 the placement is identical either
// way).
func (s *Coordinated) SetTheorem2Prune(v bool) { s.theorem2Prune = v }

// SetWindowK overrides the sliding-window size of descriptors the scheme
// creates (paper default 3). Call before processing requests.
func (s *Coordinated) SetWindowK(k int) {
	s.windowK = k
	for _, st := range s.nodes {
		st.WindowK = k
	}
}

// SetDCacheFactory selects the d-cache implementation (heap LFU by
// default; dcache.NewLRUStacksFactory for the paper's O(1) variant). Call
// before Configure.
func (s *Coordinated) SetDCacheFactory(f dcache.Factory) { s.dfac = f }

// SetAuditor attaches an online invariant auditor (nil disables, the
// default). Callable before or after Configure.
func (s *Coordinated) SetAuditor(a *audit.Auditor) {
	s.auditor = a
	for _, st := range s.nodes {
		st.Audit = a
	}
}

// SetLedger attaches a predicted-vs-realized cost ledger (nil disables,
// the default). Callable before or after Configure.
func (s *Coordinated) SetLedger(l *audit.Ledger) {
	s.ledger = l
	for _, st := range s.nodes {
		st.Ledger = l
	}
}

// SetFlightCapacity gives every node a flight recorder — the event log of
// invalidations, stale hits, revalidations and audit violations — retaining
// the last n events (0 disables, the default). Call before Configure.
func (s *Coordinated) SetFlightCapacity(n int) { s.flightCap = n }

// SetSpans attaches a cascade-wide span tracer, giving every node a span
// ring retaining the last capacity sampled spans (nil tracer disables, the
// default). Callable before or after Configure.
func (s *Coordinated) SetSpans(tr *span.Tracer, capacity int) {
	s.spanTracer = tr
	s.spanCap = capacity
	if s.ringFor == nil {
		s.ringFor = func(n model.NodeID) *span.Ring { return s.spanRings[n] }
	}
	if tr != nil && s.nodes != nil {
		s.spanRings = make(map[model.NodeID]*span.Ring, len(s.nodes))
		for n := range s.nodes {
			s.spanRings[n] = span.NewRing(capacity)
		}
	}
}

// SpanNodes returns the IDs of every node holding a span ring (empty when
// span tracing is off).
func (s *Coordinated) SpanNodes() []model.NodeID {
	out := make([]model.NodeID, 0, len(s.spanRings))
	for n := range s.spanRings {
		out = append(out, n)
	}
	return out
}

// SpanRing returns a node's span ring, or nil when span tracing is off or
// the node unknown.
func (s *Coordinated) SpanRing(n model.NodeID) *span.Ring { return s.spanRings[n] }

// SetCoherency attaches the origin-side generation authority and selects
// the mode every node enforces (lifetime is the TTL freshness lifetime in
// seconds; ignored by other modes). Callable before or after Configure; a
// nil authority turns coherency off.
func (s *Coordinated) SetCoherency(auth *coherency.Authority, mode coherency.Mode, lifetime float64) {
	s.auth = auth
	s.cohMode = mode
	s.cohLifetime = lifetime
	for _, st := range s.nodes {
		if auth == nil {
			st.Coh = nil
		} else {
			st.Coh = coherency.NewNodeView(mode, lifetime)
		}
	}
}

// Authority returns the attached generation authority (nil when coherency
// is off).
func (s *Coordinated) Authority() *coherency.Authority { return s.auth }

// CoherencyView returns a node's coherency view, or nil.
func (s *Coordinated) CoherencyView(n model.NodeID) *coherency.NodeView {
	if st := s.nodes[n]; st != nil {
		return st.Coh
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
		for n, st := range s.nodes {
			if s.draining[n] {
				continue
			}
			st.ApplyInvalidations(s.invOne[:], 0, now)
		}
	}
	return gen
}

// FlightRecorder returns a node's flight recorder, or nil when recording
// is disabled or the node unknown.
func (s *Coordinated) FlightRecorder(n model.NodeID) *flightrec.Recorder {
	if st := s.nodes[n]; st != nil {
		return st.Flight
	}
	return nil
}

// Auditor returns the attached auditor (nil when auditing is off).
func (s *Coordinated) Auditor() *audit.Auditor { return s.auditor }

// Ledger returns the attached cost ledger (nil when accounting is off).
func (s *Coordinated) Ledger() *audit.Ledger { return s.ledger }

// Name implements Scheme.
func (s *Coordinated) Name() string { return "COORD" }

// Configure implements Scheme.
func (s *Coordinated) Configure(budgets map[model.NodeID]NodeBudget) {
	s.nodes = make(map[model.NodeID]*engine.NodeState, len(budgets))
	s.draining = make(map[model.NodeID]bool)
	for n, b := range budgets {
		st := &engine.NodeState{
			Node:    n,
			Store:   cache.NewCostAware(b.CacheBytes),
			DCache:  s.dfac(b.DCacheEntries),
			WindowK: s.windowK,
			Pool:    &s.pool,
			Audit:   s.auditor,
			Ledger:  s.ledger,
		}
		if s.flightCap > 0 {
			st.Flight = flightrec.New(s.flightCap)
		}
		if s.auth != nil {
			st.Coh = coherency.NewNodeView(s.cohMode, s.cohLifetime)
		}
		s.pool.Attach(st.DCache)
		s.nodes[n] = st
	}
	if s.spanTracer != nil {
		s.spanRings = make(map[model.NodeID]*span.Ring, len(s.nodes))
		for n := range s.nodes {
			s.spanRings[n] = span.NewRing(s.spanCap)
		}
	}
	if s.auditor != nil && s.flightCap > 0 {
		// Replay is single-threaded, so the sink may read the node map
		// directly: every invariant failure lands in the offending node's
		// flight ring with full context.
		s.auditor.SetOnViolation(func(v audit.Violation) {
			st := s.nodes[v.Node]
			if st == nil {
				return
			}
			st.Flight.Record(engine.ViolationEvent(v))
		})
	}
}

// Process implements Scheme.
func (s *Coordinated) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	// Cascade-wide span trace: the replay loop is this incarnation's edge,
	// so the root request span opens here. parent tracks the span the next
	// hop's phases hang off — the root at first, then each miss hop's up
	// span, so the tree nests the chain walk exactly as the distributed
	// gateway incarnation does.
	edgeNode := model.NoNode
	if len(path.Nodes) > 0 {
		edgeNode = path.Nodes[0]
	}
	tsp := s.spanTracer.Begin(edgeNode, -1, now)
	parent := tsp.Root()
	if tsp != nil {
		if cap(s.upSpan) < len(path.Nodes) {
			s.upSpan = make([]span.SpanID, len(path.Nodes))
		}
		s.upSpan = s.upSpan[:len(path.Nodes)]
		for i := range s.upSpan {
			s.upSpan[i] = 0
		}
	}

	// ---- Upstream pass -------------------------------------------------
	// Probe each cache on the way up; collect every miss hop's candidate
	// record (including §2.4 tags — their link costs still feed deeper
	// candidates' miss penalties) in wire order, client first. In CAS
	// mode the request carries the object's current generation as a read
	// floor, so a stale copy self-heals to a miss instead of serving.
	var floor uint64
	if s.auth != nil && s.cohMode == coherency.ModeCAS {
		floor = s.auth.Gen(obj)
	}
	hit := path.OriginIndex()
	var servedGen uint64
	refetch := false
	s.cand = s.cand[:0]
	for i := range path.Nodes {
		if s.draining[path.Nodes[i]] {
			// Mid-departure relay: no lookup, no candidacy — only the
			// link cost reaches the DP.
			s.cand = append(s.cand, relayCandidate(path.Nodes[i], i, path.UpCost[i]))
			continue
		}
		st := s.nodes[path.Nodes[i]]
		lk := tsp.Start(span.PhaseLookup, path.Nodes[i], i, parent, now)
		res, c := st.UpStep(obj, size, i, path.UpCost[i], now, floor)
		tsp.End(lk, now)
		if res.Hit {
			hit = i
			servedGen = res.Gen
			break
		}
		if res.Expired || res.Stale {
			// Both freshness demotions force the request upstream: TTL
			// expiry and a generation-floor violation (CAS read floor or an
			// invalidation learned earlier) are each a revalidation charge.
			refetch = true
			if res.Stale {
				tsp.Force(span.FlagStale)
			}
		}
		up := tsp.Start(span.PhaseUp, path.Nodes[i], i, parent, now)
		if tsp != nil {
			s.upSpan[i] = up
			parent = up
		}
		tsp.Annotate(up, c.Freq, c.CostLoss, int(c.Tag))
		s.cand = append(s.cand, c)
	}
	servNode := model.NoNode
	if hit < path.OriginIndex() {
		servNode = path.Nodes[hit]
	} else if s.auth != nil {
		// The origin always serves the current generation.
		servedGen = s.auth.Gen(obj)
	}

	// ---- Placement decision at the serving node ------------------------
	// Message accounting: every hop whose d-cache held the descriptor
	// piggybacked it upward (candidates and cannot-fit alike); the "no
	// descriptor" tag costs nothing.
	var piggyback int64
	for i := range s.cand {
		if s.cand[i].Tag != engine.TagNoDescriptor {
			piggyback += descriptorWireBytes
		}
	}
	opts := engine.DecideOptions{ClampMonotone: s.clampMonotone, Theorem2Prune: s.theorem2Prune}
	if s.auditor != nil || s.ledger != nil {
		opts.Audit = s.auditor
		opts.Ledger = s.ledger
		opts.Obj = obj
		opts.Now = now
	}
	if tsp != nil {
		opts.Span = tsp
		opts.SpanParent = parent
		opts.Now = now
	}
	chosen := s.dec.Decide(s.cand, opts, engine.ServePoint{Hop: hit, Node: servNode})
	piggyback += int64(len(chosen)) * 4 // placement instructions on the response

	// ---- Downstream pass ------------------------------------------------
	// chosen holds ascending hop indices and the response walks hops
	// descending — a tail cursor replaces a chosen-set map. Origin-served
	// responses piggyback the invalidation-log tail PSI-style; each node
	// applies it before its own DownStep, so a placement decided against
	// a just-invalidated copy is rejected deterministically.
	var invTail []coherency.Invalidation
	var invHead uint64
	if s.auth != nil && s.cohMode.Validates() && hit == path.OriginIndex() {
		s.invBuf = s.auth.Tail(s.invBuf[:0])
		invTail = s.invBuf
		invHead = s.auth.Head()
		piggyback += int64(len(invTail)) * invalidationWireBytes
	}
	placed := s.placed[:0]
	last := len(chosen) - 1
	mp := 0.0 // the response message's miss-penalty counter
	for i := hit - 1; i >= 0; i-- {
		prev := mp
		mp += path.UpCost[i]
		if s.draining[path.Nodes[i]] {
			// Relay hop: the link folds into the counter, no DownStep (a
			// relay never appears in chosen — it shipped no candidacy).
			continue
		}
		st := s.nodes[path.Nodes[i]]
		var up span.SpanID
		if tsp != nil {
			up = s.upSpan[i]
		}
		if invTail != nil {
			coh := tsp.Start(span.PhaseCoherency, path.Nodes[i], i, up, now)
			st.ApplyInvalidations(invTail, invHead, now)
			tsp.End(coh, now)
		}
		place := last >= 0 && chosen[last] == i
		if place {
			last--
		}
		dn := tsp.Start(span.PhaseDown, path.Nodes[i], i, up, now)
		res := st.DownStep(obj, size, place, mp, servedGen, now)
		tsp.Annotate(dn, mp, float64(len(res.Evicted)), span.DownOutcome(res.Placed, res.PlaceFailed))
		tsp.End(dn, now)
		tsp.End(up, now)
		if s.auditor != nil {
			s.auditor.CheckPenaltyStep(nil, st.Node, obj, i, prev, mp, res.MP, res.Placed)
		}
		mp = res.MP
		if res.Placed {
			placed = append(placed, i)
		}
	}
	s.placed = placed
	s.spanTracer.Collect(tsp, now, s.ringFor)
	return Outcome{HitIndex: hit, Placed: placed, PiggybackBytes: piggyback, ServedGen: servedGen, Refetch: refetch}
}

// Cache exposes a node's main store for tests.
func (s *Coordinated) Cache(n model.NodeID) *cache.HeapStore {
	if st := s.nodes[n]; st != nil {
		return st.Store
	}
	return nil
}

// DCache exposes a node's descriptor cache for tests.
func (s *Coordinated) DCache(n model.NodeID) dcache.DCache {
	if st := s.nodes[n]; st != nil {
		return st.DCache
	}
	return nil
}

// PooledDescriptors reports how many recycled descriptors the scheme's
// shared pool holds, for tests.
func (s *Coordinated) PooledDescriptors() int { return s.pool.Len() }

// Evict implements Evicter: the invalidated copy's descriptor is demoted
// to the d-cache, exactly as a capacity eviction would.
func (s *Coordinated) Evict(node model.NodeID, obj model.ObjectID) bool {
	st := s.nodes[node]
	d := st.Store.Remove(obj)
	if d == nil {
		return false
	}
	st.DCache.Put(d, d.Window.LastAccess())
	return true
}
