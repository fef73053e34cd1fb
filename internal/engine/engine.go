// Package engine is the transport-agnostic core of the coordinated caching
// protocol (paper §2.2–2.4). It implements the per-node protocol steps and
// the two-pass walk over a request's path once, so the three incarnations in
// this repository — the replay scheme (internal/scheme.Coordinated), the
// in-process cluster (internal/runtime) and the HTTP gateway
// (internal/httpgw) — are thin adapters: the first two own a Walk and answer
// its deliveries, the gateway takes one hop's steps per handler.
//
// The protocol per request:
//
//   - Upstream pass: Up probes each cache for the object (step.go); the
//     first hit is the serving node. On a miss the same step performs the
//     miss-side bookkeeping (d-cache access history) and emits the hop's
//     Candidate — the piggybacked (f, l) record, or the §2.4 "no descriptor"
//     tag.
//   - Decision: Decider.Decide reconstructs each candidate's miss penalty
//     m from the accumulated link costs, optionally prunes locally
//     non-beneficial candidates (Theorem 2) and restores the monotone
//     frequency profile, then solves the §2.2 dynamic program
//     (internal/core) and returns the chosen hops.
//   - Downstream pass: Down applies the decision at each hop —
//     insert-with-eviction into the main store and miss-penalty counter
//     reset at caching points, d-cache penalty updates elsewhere.
//
// Up and Down carry a hop's body bytes with its descriptors (Hop.Tier).
// Walk strings the three together over one path (walk.go); its owner only
// says, per delivery, whether the hop is live, routed around, or the end of
// the walk. The HTTP gateway takes its one hop's Up and Down per request.
//
// internal/core must not be imported by the incarnations directly
// (cmd/lint enforces this); every placement decision flows through
// this package so the three transports cannot re-diverge.
//
// Tracing: the Sharded steps take no per-request trace handle. Decide owns
// the decide span (DecideOptions.Span) and annotates it with the DP's
// output; Up and Down open and annotate the lookup, up, down, coherency,
// promote and body spans (span.Span documents the attributes).
//
// Hot-path contract: none of the per-request methods allocate when span
// tracing is off and the caller reuses its scratch (a Walk, a Decider, a
// victim buffer); the replay simulator runs at 0 allocs/op. Sharded is safe
// for concurrent use — every step takes its object's shard lock — while a
// Walk and a Decider belong to one goroutine at a time: a concurrent
// transport pools them. Only a caller with no scratch of its own, the HTTP
// gateway, uses the allocating package-level Decide.
package engine

import (
	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/freq"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// Tag classifies a hop's upstream record.
type Tag uint8

const (
	// TagCandidate marks a full piggyback record: the node holds the
	// object's descriptor and could fit the object, so it carries a valid
	// (Freq, CostLoss) pair and participates in the placement decision.
	TagCandidate Tag = iota
	// TagNoDescriptor is the §2.4 special tag: the node has no meta
	// information about the object and is excluded from the decision. Its
	// link cost still contributes to downstream candidates' miss
	// penalties.
	TagNoDescriptor
	// TagCannotFit marks a node whose d-cache holds the descriptor but
	// whose store cannot make room for the object at any cost (the object
	// is larger than the cache). Excluded from the decision like
	// TagNoDescriptor; transports may collapse the two on the wire.
	TagCannotFit
)

// Candidate is one hop's serializable upstream record: everything the
// request message piggybacks at a cache it passes. Transports encode it as
// they see fit — the scheme and the cluster's walk keep a slice, the gateway
// renders it as an X-Cascade-Path header entry.
type Candidate struct {
	// Hop is the transport's hop index for this record, ascending from
	// the requesting cache (0) toward the serving node. Transports that
	// do not number hops on the wire (the HTTP gateway) assign positions
	// at parse time.
	Hop int
	// Node identifies the cache for diagnostics and traces (model.NoNode
	// when unknown).
	Node model.NodeID
	// Tag classifies the record; Freq and CostLoss are meaningful only
	// for TagCandidate.
	Tag Tag
	// Freq is f_i, the node's sliding-window access-frequency estimate.
	Freq float64
	// CostLoss is l_i, the greedy eviction cost loss of fitting the
	// object at the node.
	CostLoss float64
	// Link is the cost of the link from this hop toward the serving
	// side; miss penalties are reconstructed by summing Link over the
	// hops between a candidate and the serving node.
	Link float64
	// Gen is the coherency generation of the last copy this node held
	// (from its d-cache descriptor; zero when unknown). Carried on the
	// wire beside Freq/CostLoss so coherency state rides the same
	// piggyback channel as the paper's meta information.
	Gen uint64
}

// nodeState is one shard of a Sharded node: a main object store and the
// §2.4 descriptor cache, with every protocol step below operating on it
// alone. Sharded guards each one with its shard lock; the engine's tests
// drive a bare one as the unsharded reference.
type nodeState struct {
	// Node identifies the cache in traces and diagnostics.
	Node model.NodeID
	// Store is the node's main cache (cost-aware replacement, §2.3).
	Store *cache.HeapStore
	// DCache holds descriptors of objects not in the main cache (§2.4).
	DCache dcache.DCache
	// WindowK is the sliding-window size of descriptors created at this
	// node (0 means the paper default).
	WindowK int
	// Pool optionally recycles descriptors so steady-state replay
	// allocates none; nil allocates fresh descriptors.
	Pool *DescPool
	// Ring optionally keeps the node's coherency and disk-tier events
	// (invalidate, stale_hit, revalidate, promote, spill) as event records;
	// nil disables. The hit/miss/place steps below write none — their
	// record is the span the transport annotates from their return values.
	Ring *span.Ring
	// Audit optionally verifies protocol invariants online at this node
	// (nil disables). Transports share one Auditor across their nodes.
	Audit *audit.Auditor
	// Ledger optionally accounts realized savings (hits at placed
	// copies) and apply-time placement outcomes (nil disables).
	Ledger *audit.Ledger
	// Coh optionally holds the node's coherency view — generation
	// floors, PSI log cursor and TTL bookkeeping (nil disables all
	// freshness logic; the hot path pays one nil check per step).
	Coh *coherency.NodeView
}

// RecordViolations points a's violation sink at the span rings: every
// violation becomes an audit_violation event record in the ring ring
// returns for the violating node (nil drops it). Each incarnation installs
// it on its auditor (audit and span may not import each other; the engine
// sees both).
func RecordViolations(a *audit.Auditor, ring func(model.NodeID) *span.Ring) {
	a.SetOnViolation(func(v audit.Violation) {
		e := span.Event(span.PhaseAuditViolation, v.Node, v.Now)
		e.Obj, e.Hop, e.A, e.B, e.N = v.Obj, v.Hop, v.Got, v.Want, int(v.Invariant)
		ring(v.Node).Add(e)
	})
}

// UpMiss performs the miss-side bookkeeping of the upstream pass at this
// node and returns its hop record: the request is observed passing through
// (refreshing the d-cache access history), and the node's candidacy is
// evaluated — descriptor present and object fits → full (f, l) record,
// otherwise the §2.4 tag. size may be 0 when the transport does not know
// the object's size on the way up (the HTTP gateway); the descriptor's
// recorded size is used instead.
func (st *nodeState) UpMiss(obj model.ObjectID, size int64, hop int, link float64, now float64) Candidate {
	c := Candidate{Hop: hop, Node: st.Node, Tag: TagNoDescriptor, Link: link}
	// RecordAccess returns the descriptor it refreshed, so the hop probes
	// the d-cache once.
	d := st.DCache.RecordAccess(obj, now)
	if d == nil {
		return c
	}
	if size <= 0 {
		size = d.Size
	}
	c.Gen = d.Gen
	if loss, ok := st.Store.CostLoss(size, now); !ok {
		c.Tag = TagCannotFit
	} else {
		c.Tag = TagCandidate
		c.Freq = d.Freq(now)
		c.CostLoss = loss
	}
	return c
}

// UpStep is one hop of the upstream pass in a single call: the probe (see
// probe) and, unless the copy is served, kept for revalidation or for a
// recheck — or a disk copy is still to be tried (diskNext) — UpMiss's
// bookkeeping and hop record. A stale or expired copy self-heals inside the
// probe and the miss half then sees its demoted descriptor, exactly as
// LookupFresh and UpMiss in sequence would.
func (st *nodeState) UpStep(q *Req, floor uint64, tiered bool, mem *store.Meta, recheck bool, idx int, link float64, diskNext bool) (probed, Candidate) {
	p := st.probe(q, floor, tiered, mem, recheck)
	if p.Hit || p.Revalidate || p.recheck || diskNext {
		return p, Candidate{}
	}
	return p, st.UpMiss(q.Obj, q.Size, idx, link, q.Now)
}

// downResult reports one downstream step's effect. Evicted lists the
// victims the insertion displaced, their descriptors already demoted to the
// d-cache; the slice aliases the store's scratch buffer — valid until the
// next insert.
type downResult struct {
	DownOutcome
	Evicted []*cache.Descriptor
}

// DownStepUnder applies the response pass at this node. mp is the
// miss-penalty counter including the link the response just crossed (the
// caller accumulates link costs); gen is the coherency generation of the
// body flowing down (the serving copy's generation — zero when coherency is
// off). If place is set the node caches the object: the descriptor is
// promoted from the d-cache (or rebuilt), its miss penalty set and its
// generation stamped, and victims' descriptors demoted; the counter resets
// to zero on success. A placement whose generation is below the node's
// floor is rejected (CAS conflict — the body was invalidated while in
// flight). Otherwise the node records the passing counter in the object's
// d-cache descriptor, creating one if needed.
//
// floorObj names the identity whose generation governs obj: a segment of a
// large object is placed, evicted and counted under its own identity, but it
// is written — and invalidated — as part of its base. checks is where the
// step's audit checks are counted (nil: on the auditor at once).
func (st *nodeState) DownStepUnder(obj, floorObj model.ObjectID, size int64, place bool, mp float64, gen uint64, now float64, checks *audit.Tally) downResult {
	if place {
		if st.Coh != nil && st.Coh.Mode().Validates() && gen < st.Coh.Floor(floorObj) {
			// The copy was invalidated while the response was in flight;
			// caching it would resurrect stale bytes.
			st.Coh.Metrics().CASConflict()
			if st.Ledger != nil {
				st.Ledger.RecordPlacement(st.Node, false)
			}
			return downResult{DownOutcome: DownOutcome{MP: mp, PlaceFailed: true}}
		}
		desc := st.DCache.Take(obj)
		if desc == nil {
			// Possible only when the d-cache dropped the descriptor
			// between passes; rebuild it.
			desc = st.newDescriptor(obj, size)
			desc.Window.Record(now)
		}
		desc.SetMissPenalty(mp)
		desc.Gen = gen
		evicted, ok := st.insert(desc, now, checks)
		if st.Ledger != nil {
			st.Ledger.RecordPlacement(st.Node, ok)
		}
		if !ok {
			return downResult{DownOutcome: DownOutcome{MP: mp, PlaceFailed: true}}
		}
		return downResult{DownOutcome{MP: 0, Placed: true}, evicted}
	}
	// Not instructed to cache: maintain the node's meta information about
	// the passing object. SetMissPenalty answers whether there was any. A
	// full d-cache admits the object into the descriptor a Put would evict,
	// whose lines the victim selection has just read, so nothing the
	// protocol computes changes; only one with room takes a new descriptor.
	if !st.DCache.SetMissPenalty(obj, mp, now) && !st.DCache.ReuseVictim(obj, size, st.windowK(), mp, now) {
		desc := st.newDescriptor(obj, size)
		desc.Window.Record(now)
		desc.SetMissPenalty(mp)
		st.DCache.Put(desc, now)
	}
	return downResult{DownOutcome: DownOutcome{MP: mp}}
}

// promote re-admits a spilled object: its descriptor left the main store
// with an NCL eviction but the data plane kept the bytes on disk, and a new
// request just hit that disk copy. The descriptor is taken back from the
// d-cache (or rebuilt), its access history refreshed, and the object is
// inserted exactly like a DownStepUnder placement — same eviction-order
// audit, same victim demotion — so the §2.3 invariants hold for promoted
// copies too. The hit is booked on the ledger whether or not the
// re-admission sticks: the bytes are served either way. A copy at a
// generation gen below q.FloorObj's floor is stale and not re-admitted, so
// a spill can never resurrect stale bytes. The victims alias the store's
// scratch buffer.
func (st *nodeState) promote(q *Req, size int64, gen uint64) (placed, stale bool, evicted []*cache.Descriptor) {
	obj, now := q.Obj, q.Now
	if f := st.readFloor(q.FloorObj, 0); gen < f {
		st.staleHit(q, gen, f)
		return false, true, nil
	}
	desc := st.DCache.Take(obj)
	if desc == nil {
		desc = st.newDescriptor(obj, size)
	}
	desc.Gen = gen
	desc.Window.Record(now)
	avoided := desc.MissPenalty()
	if st.Ledger != nil {
		st.Ledger.RecordHit(st.Node, avoided)
	}
	if evicted, placed = st.insert(desc, now, nil); placed {
		st.record(span.PhasePromote, q.Trace.ID(), obj, now, avoided, 0, len(evicted))
	}
	return placed, false, evicted
}

// insert admits desc to the main store, the step a placement and a
// promotion share. A failed insert returns desc to the d-cache. A
// successful one is checked against the §2.3 eviction-order invariant, its
// victims' descriptors are demoted to the d-cache and the copy's fetch time
// is recorded; the victims alias the store's scratch buffer.
func (st *nodeState) insert(desc *cache.Descriptor, now float64, checks *audit.Tally) ([]*cache.Descriptor, bool) {
	evicted, ok := st.Store.Insert(desc, now)
	if !ok {
		st.DCache.Put(desc, now)
		return nil, false
	}
	if st.Audit != nil && len(evicted) > 0 {
		// The committed victim set must be a prefix of the NCL order.
		// Victim keys are final here (the store refreshed them at
		// selection); check before the d-cache demotion below, which
		// reuses the key field.
		maxK := evicted[0].EvictionKey()
		for _, v := range evicted[1:] {
			if k := v.EvictionKey(); k > maxK {
				maxK = k
			}
		}
		if minK, retained := st.Store.MinKeyExcluding(desc.ID); retained {
			st.Audit.CheckEvictionOrder(checks, st.Node, desc.ID, maxK, minK, now)
		}
	}
	for _, v := range evicted {
		st.DCache.Put(v, now)
		if st.Coh != nil {
			st.Coh.Forget(v.ID)
		}
	}
	if st.Coh != nil {
		st.Coh.RecordFetch(desc.ID, now)
	}
	return evicted, true
}

// windowK is the sliding-window size of descriptors created at this node.
func (st *nodeState) windowK() int {
	if st.WindowK <= 0 {
		return freq.DefaultK
	}
	return st.WindowK
}

// newDescriptor builds (or recycles) a descriptor with this node's window
// parameters.
func (st *nodeState) newDescriptor(obj model.ObjectID, size int64) *cache.Descriptor {
	if st.Pool != nil {
		return st.Pool.Get(obj, size, st.windowK())
	}
	return cache.NewDescriptorK(obj, size, st.windowK())
}
