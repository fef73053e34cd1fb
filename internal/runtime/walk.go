package runtime

import (
	"context"
	"errors"
	"time"

	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/topology"
)

// The data plane: one walk per request.
//
// A request is the paper's two passes over one path (§2.3) run as plain
// function calls on the Get goroutine: the upstream pass collecting
// piggybacked candidates, the serving point's §2.2 decision, the downstream
// pass applying placements and the miss-penalty counter. Per-node state is
// guarded by engine.Sharded's shard locks, so concurrent walks need no
// further serialization. Each hop the walk reaches is one protocol message
// delivery: it counts toward Stats.Messages, consults the fault injector,
// and is skipped — its link folded into the cost or the miss penalty — when
// the node turns out to be unreachable.
//
// A hop touches its own node's memory and the walk's, nothing else: what the
// request adds to the cluster-wide counters accumulates in the walk and is
// published once when the Get returns (Cluster.publish). A counter word that
// every hop of every request writes is a cache line every core fights over.

// walk is one request's protocol state plus the buffers it recycles through
// Cluster.walks. On the way up it accumulates one engine.Candidate per node
// holding the object's descriptor (the §2.4 "no descriptor" tag is
// represented by the entry's absence; the decision step resynthesizes tagged
// records for the gaps).
type walk struct {
	obj  model.ObjectID
	size int64
	now  float64

	route  []model.NodeID // caches from the client's first cache upward
	upCost []float64      // per-object link costs, aligned with route (aliases costBuf)

	accCost float64 // cost accumulated so far (links below the hop being visited)
	floor   uint64  // ModeCAS read floor: origin generation at Get start
	pb      []engine.Candidate

	// tsp is the request's span trace (nil when span tracing is off).
	// spanParent tracks the span the next hop's phases parent on — the
	// root first, then each miss hop's up span; upSpans remembers the up
	// span opened at each hop so the downstream pass can close it.
	tsp        *span.Trace
	spanParent span.SpanID
	upSpans    []span.SpanID

	costBuf []float64
	chosen  []int
	evict   []model.ObjectID
	inv     []coherency.Invalidation
	spanBuf []span.SpanID

	// count is this request's share of the cluster-wide counters,
	// published and cleared by Cluster.publish.
	count walkCounts
}

// walkCounts is what one request adds to the cluster-wide counters.
type walkCounts struct {
	messages     int64 // live hop deliveries, either pass
	hit          bool  // a cache served it
	inserts      int64 // copies written on the way down
	routedAround int64 // hops skipped as down or saturated
	checks       audit.Tally
}

// errLost reports a walk abandoned because the fault injector dropped one
// of its messages; Get turns it into the origin-direct Degraded result.
var errLost = errors.New("runtime: protocol message lost")

// deliver is one protocol message delivery to a hop, in either pass. It
// returns the live node to run the step on; (nil, nil) when the node is
// unreachable — down, crashed by injection, or saturated — so the caller
// routes around it; and an error when the walk must stop where it stands:
// errLost for an injected drop, ctx.Err() when the context ends during an
// injected delay. The injector only ever sees deliveries to live nodes, so a
// seeded fault schedule is a function of the traffic alone.
func (c *Cluster) deliver(ctx context.Context, w *walk, to model.NodeID) (*node, error) {
	n := c.node(to)
	if n == nil || n.down.Load() {
		return nil, nil
	}
	if inj := c.cfg.Fault; inj != nil {
		switch d := inj.Next(int64(to)); d.Action {
		case fault.ActDrop:
			c.faultDrops.Add(1)
			return nil, errLost
		case fault.ActCrash:
			c.Fail(to)
			return nil, nil
		case fault.ActSaturate:
			return nil, nil
		case fault.ActDelay:
			t := time.NewTimer(d.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			// The node may have crashed or been replaced while the message
			// was held: re-resolve the slot.
			if n = c.node(to); n == nil || n.down.Load() {
				return nil, nil
			}
		}
	}
	w.count.messages++
	return n, nil
}

// skip accounts a hop routed around mid-walk.
func (c *Cluster) skip(w *walk, id model.NodeID) {
	w.count.routedAround++
	c.nodeInst[id].routedAround.Inc()
}

// runWalk executes one request. route is already compacted to routable
// nodes; lead is the scaled cost of the links below the first live hop.
func (c *Cluster) runWalk(ctx context.Context, w *walk, route topology.Route, lead float64, obj model.ObjectID, size int64, scale float64) (Result, error) {
	w.costBuf = w.costBuf[:0]
	for _, v := range route.UpCost {
		w.costBuf = append(w.costBuf, v*scale)
	}
	w.obj, w.size, w.now = obj, size, c.cfg.Clock()
	w.route, w.upCost = route.Caches, w.costBuf
	w.accCost = lead
	w.floor = c.casFloor(obj)
	w.pb = w.pb[:0]
	if w.tsp = c.spanTracer.Begin(route.Caches[0], -1, w.now); w.tsp != nil {
		w.spanParent = w.tsp.Root()
		if cap(w.spanBuf) < len(route.Caches) {
			w.spanBuf = make([]span.SpanID, len(route.Caches))
		}
		w.upSpans = w.spanBuf[:len(route.Caches)]
		for i := range w.upSpans {
			w.upSpans[i] = 0
		}
	}

	r, err := c.passes(ctx, w)
	if err != nil {
		// An abandoned walk is always worth keeping in the span rings.
		w.tsp.Force(span.FlagError)
	}
	c.spanTracer.Collect(w.tsp, w.now, c.spanRingFor)

	// Drop references into the topology so pooled scratch does not pin it.
	w.route, w.upCost, w.tsp, w.upSpans = nil, nil, nil, nil
	return r, err
}

// passes runs the upstream pass, the placement decision and the downstream
// pass in place. A non-nil error means the walk was abandoned mid-pass:
// steps already applied at earlier hops stay (the protocol is per-request
// self-contained, so a half-finished walk leaves every cache consistent) and
// nothing further runs.
func (c *Cluster) passes(ctx context.Context, w *walk) (Result, error) {
	servingHop := len(w.route)
	servedBy := model.NoNode
	var gen uint64
	for hop, id := range w.route {
		n, err := c.deliver(ctx, w, id)
		if err != nil {
			return Result{}, err
		}
		if n == nil {
			// Unreachable since the route was compacted: the hop's uplink
			// cost folds into accCost, so the eventual serving node's DP
			// sees the true distance across the gap (the §2.4 tag already
			// tolerates the missing hop record).
			c.skip(w, id)
			w.accCost += w.upCost[hop]
			continue
		}
		// One engine step per hop: the probe and, on a miss, the node
		// observing the request pass through — its descriptor's history
		// refreshed, its candidacy piggybacked (a node without a usable
		// record ships no entry, the §2.4 tag, and is excluded from the DP).
		// A node with a disk tier takes the step in its two halves, because
		// a disk hit between them must not age the d-cache.
		lk := w.tsp.Start(span.PhaseLookup, id, hop, w.spanParent, w.now)
		var res engine.LookupResult
		var cand engine.Candidate
		if n.bodies == nil {
			res, cand = n.st.UpStep(w.obj, w.size, hop, w.upCost[hop], w.now, w.floor)
		} else {
			res = n.st.LookupFresh(w.obj, w.now, w.floor)
		}
		w.tsp.End(lk, w.now)
		if res.Hit {
			// Serving node A_0. A Stale or Expired copy self-healed to a
			// miss inside the probe and the pass continues upstream.
			servingHop, servedBy, gen = hop, id, res.Gen
			break
		}
		if res.Stale {
			w.tsp.Force(span.FlagStale)
		}
		if n.bodies != nil {
			served, dgen, ev := n.diskServe(w.obj, w.size, w.now, w.floor, w.evict)
			w.evict = ev
			if served {
				psp := w.tsp.Start(span.PhasePromote, id, hop, w.spanParent, w.now)
				w.tsp.End(psp, w.now)
				servingHop, servedBy, gen = hop, id, dgen
				break
			}
			cand = n.st.UpMiss(w.obj, w.size, hop, w.upCost[hop], w.now)
		}
		up := w.tsp.Start(span.PhaseUp, id, hop, w.spanParent, w.now)
		if w.tsp != nil {
			w.upSpans[hop] = up
			w.spanParent = up
		}
		w.tsp.Annotate(up, cand.Freq, cand.CostLoss, int(cand.Tag))
		if cand.Tag == engine.TagCandidate {
			w.pb = append(w.pb, cand)
		}
		w.accCost += w.upCost[hop]
	}

	result := Result{ServedBy: servedBy, Cost: w.accCost, Hops: servingHop, ServedGen: gen}
	var invTail []coherency.Invalidation
	var invHead uint64
	if servedBy == model.NoNode {
		// Every cache missed (or was unreachable): the origin serves, and by
		// now accCost has folded every link including the topmost one. Its
		// decision logic runs right here — it is a deterministic function of
		// the piggybacked data; a real origin would execute it upon
		// receiving the tagged request.
		result.Hops = len(w.route) - 1
		if w.upCost[len(w.route)-1] > 0 {
			result.Hops++ // hierarchy: root–server is a real link
		}
		gen = c.originGen(w.obj)
		result.ServedGen = gen
		if c.auth != nil && c.cfg.CoherencyMode.Validates() {
			// PSI: the origin's response carries its recent invalidation
			// tail down the path.
			w.inv = c.auth.Tail(w.inv[:0])
			invTail, invHead = w.inv, c.auth.Head()
		}
	}
	if servingHop == 0 {
		// Hit at the client's first cache: nothing travels downstream, so
		// the DP is skipped — but the decide phase still lands in the span
		// tree (trivially empty, as the other incarnations' engine call
		// records it), so traces conform across transports. Nil-safe no-op
		// when tracing is off.
		dsp := w.tsp.Start(span.PhaseDecide, servedBy, 0, w.spanParent, w.now)
		w.tsp.End(dsp, w.now)
		w.count.hit = true
		return result, nil
	}

	chosen := c.decide(w, servingHop, servedBy, w.chosen[:0])
	w.chosen = chosen

	mp := 0.0
	for h := servingHop - 1; h >= 0; h-- {
		id := w.route[h]
		n, err := c.deliver(ctx, w, id)
		if err != nil {
			// Copies written above this hop exist, and are counted.
			return Result{}, err
		}
		if n == nil {
			// An unreachable cache takes no copy and learns no penalty, but
			// its link cost still accumulates into the counter so the next
			// live cache below sees its true distance to the nearest copy.
			c.skip(w, id)
			mp += w.upCost[h]
			continue
		}
		var up span.SpanID
		if w.tsp != nil {
			up = w.upSpans[h]
		}
		// An origin response's piggybacked invalidation tail lands before the
		// placement step, so a placement at the pre-write generation is caught
		// by the freshly raised floor.
		if invTail != nil {
			coh := w.tsp.Start(span.PhaseCoherency, id, h, up, w.now)
			n.st.ApplyInvalidations(invTail, invHead, w.now)
			w.tsp.End(coh, w.now)
		}
		// prev is the counter as it left the last caching point (plus any
		// links folded in for routed-around hops) — the miss-penalty audit's
		// reference value.
		prev := mp
		mp += w.upCost[h]
		// Chosen hops above this one that were routed around (dead or
		// saturated while the response descended) can no longer take a copy:
		// drop them so the tail cursor stays aligned.
		for k := len(chosen) - 1; k >= 0 && chosen[k] > h; k-- {
			chosen = chosen[:k]
		}
		place := false
		if k := len(chosen) - 1; k >= 0 && chosen[k] == h {
			place = true
			chosen = chosen[:k]
		}
		dn := w.tsp.Start(span.PhaseDown, id, h, up, w.now)
		out, ev := n.st.DownStepUnder(w.obj, w.obj, w.size, place, mp, gen, w.now, w.evict[:0], &w.count.checks)
		w.evict = ev
		w.tsp.Annotate(dn, mp, float64(len(ev)), span.DownOutcome(out.Placed, out.PlaceFailed))
		c.auditor.CheckPenaltyStep(&w.count.checks, id, w.obj, h, prev, mp, out.MP, out.Placed)
		mp = out.MP
		if out.Placed {
			result.Placed = append(result.Placed, id)
			w.count.inserts++
			inst := &c.nodeInst[id]
			inst.inserts.Inc()
			inst.evictions.Add(int64(len(ev)))
			bsp := w.tsp.Start(span.PhaseBody, id, h, dn, w.now)
			n.placeBody(w.obj, w.size, gen, w.now, ev)
			w.tsp.End(bsp, w.now)
		}
		w.tsp.End(dn, w.now)
		w.tsp.End(up, w.now)
	}

	w.count.hit = servedBy != model.NoNode
	return result, nil
}

// decideScratch bundles the buffers one placement decision needs — the
// rebuilt candidate vector and an engine.Decider with its DP tables —
// recycled through Cluster.decScratch.
type decideScratch struct {
	cands []engine.Candidate
	dec   engine.Decider
}

// decide rebuilds the full candidate vector in wire order (client first)
// and runs the serving point's placement decision (engine.Decide, the §2.2
// dynamic program): piggybacked records fill their hops; hops that shipped
// no record — no descriptor, cannot fit, or routed around mid-flight — get
// the §2.4 tag, whose link cost still feeds deeper candidates' miss
// penalties. The chosen hop set is appended to buf (so callers may recycle
// a buffer) and never aliases the decider's scratch.
func (c *Cluster) decide(w *walk, servingHop int, servedBy model.NodeID, buf []int) []int {
	s := c.decScratch.Get().(*decideScratch)
	if cap(s.cands) < servingHop {
		s.cands = make([]engine.Candidate, servingHop)
	}
	cands := s.cands[:servingHop]
	for i := range cands {
		cands[i] = engine.Candidate{Hop: i, Node: w.route[i], Tag: engine.TagNoDescriptor, Link: w.upCost[i]}
	}
	for _, e := range w.pb {
		if e.Hop < servingHop {
			cands[e.Hop] = e
		}
	}
	opts := engine.DecideOptions{ClampMonotone: true}
	if c.auditor != nil || c.ledger != nil {
		opts.Audit = c.auditor
		opts.Checks = &w.count.checks
		opts.Ledger = c.ledger
		opts.Obj = w.obj
		opts.Now = w.now
	}
	if w.tsp != nil {
		opts.Span = w.tsp
		opts.SpanParent = w.spanParent
		opts.Now = w.now
	}
	chosen := append(buf, s.dec.Decide(cands, opts,
		engine.ServePoint{Hop: servingHop, Node: servedBy})...)
	c.decScratch.Put(s)
	return chosen
}
