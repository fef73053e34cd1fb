package engine

import (
	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
)

// Verdict is a walk owner's answer to one protocol message delivery.
type Verdict uint8

const (
	// Live: the message reached the hop's node, which takes its step.
	Live Verdict = iota
	// RouteAround: the node is unreachable (down, saturated, draining). The
	// message crosses its link without a step: on the way up the hop ships
	// the §2.4 "no descriptor" tag, on the way down its link folds into the
	// miss-penalty counter.
	RouteAround
	// Stop: the walk ends where it stands. Steps already taken stay; the
	// owner knows why it stopped.
	Stop
)

// Hop is the node a delivery reached.
type Hop struct {
	// St is the node's protocol state.
	St *Sharded
	// Tier is the node's body store with a tier below memory; nil when the
	// node has none.
	Tier Tier
}

// Tier is the data plane behind a hop's descriptors.
type Tier interface {
	// Serve tries the tier below memory after a memory miss at floor (the
	// request's read floor), re-admitting a copy it serves. It reports
	// whether it served and the served copy's generation; evict is a victim
	// buffer, returned possibly grown.
	Serve(obj model.ObjectID, size int64, now float64, floor uint64, evict []model.ObjectID) (bool, uint64, []model.ObjectID)
	// Place stores a placed object's bytes at generation gen and spills its
	// insertion's victims.
	Place(obj model.ObjectID, size int64, gen uint64, now float64, evicted []model.ObjectID)
}

// Router is the owner of a walk: it resolves every delivery and learns
// every placement.
type Router interface {
	// Deliver resolves the protocol message to Route[hop], in either pass.
	Deliver(hop int) (Hop, Verdict)
	// Placed reports a copy committed at a live hop whose insertion evicted
	// the given number of victims.
	Placed(hop, evicted int)
}

// Walk is one request's two passes over its path (paper §2.3): the request
// travels up collecting each hop's piggybacked record, the serving point
// solves the §2.2 placement, and the response travels down applying it and
// carrying the miss-penalty counter. Every incarnation that walks a whole
// path in one place — the replay simulator and the in-process cluster —
// runs this one. The owner sets the inputs, calls Run and reads the
// outputs; the scratch is kept for the next request. A Walk belongs to one
// goroutine at a time.
type Walk struct {
	// Inputs.
	Obj  model.ObjectID
	Size int64
	Now  float64
	// Route lists the caches from the requesting one toward the origin;
	// Links[i] is the cost of the link from Route[i] toward the origin.
	Route []model.NodeID
	Links []float64
	// Auth is the origin's generation authority and Mode the coherency
	// mode every node enforces (nil Auth: coherency off).
	Auth *coherency.Authority
	Mode coherency.Mode
	// Decide holds the decision's options; Run fills in the per-request
	// fields (Checks, Obj, Now, Span). Its Audit also checks every
	// downstream penalty step.
	Decide DecideOptions
	// Trace is the request's span trace (nil when tracing is off); every
	// phase parents on its root.
	Trace *span.Trace

	// Cost is the request's access cost: the owner's starting value plus
	// every link the request crossed on the way up.
	Cost float64

	// Outputs.
	// Serve is the serving hop, len(Route) when the origin served;
	// ServedBy its node (model.NoNode for the origin) and Gen the served
	// copy's generation.
	Serve    int
	ServedBy model.NodeID
	Gen      uint64
	// Refetch reports a copy demoted on the way up, stale or expired.
	Refetch bool
	// Cands holds one record per hop below Serve, in wire order, the §2.4
	// tags of routed-around and unknowing hops included.
	Cands []Candidate
	// Chosen lists the hops the decision chose, ascending; it aliases the
	// walk's scratch.
	Chosen []int
	// Tail is the invalidation-log tail the origin's response carried
	// (nil unless the origin served in a validating mode).
	Tail []coherency.Invalidation
	// Checks tallies the audit checks the walk ran; the owner publishes it.
	Checks audit.Tally

	dec     Decider
	upSpans []span.SpanID
	evict   []model.ObjectID
	inv     []coherency.Invalidation
}

// Run executes the walk. It reports false when the router stopped it; the
// steps already applied stay — the protocol is per-request self-contained,
// so a half-finished walk leaves every cache consistent — and the outputs
// describe the walk only up to where it stopped.
func (w *Walk) Run(r Router) bool {
	tr := w.Trace
	parent := tr.Root()
	if tr != nil {
		if cap(w.upSpans) < len(w.Route) {
			w.upSpans = make([]span.SpanID, len(w.Route))
		}
		w.upSpans = w.upSpans[:len(w.Route)]
		clear(w.upSpans)
	}
	var floor uint64
	if w.Auth != nil && w.Mode == coherency.ModeCAS {
		// CAS: the request carries the object's current generation as a
		// read floor, so a stale copy self-heals to a miss.
		floor = w.Auth.Gen(w.Obj)
	}
	w.Serve, w.ServedBy, w.Gen, w.Refetch = len(w.Route), model.NoNode, 0, false
	w.Cands, w.Chosen, w.Tail = w.Cands[:0], nil, nil

	// Upstream pass.
	for h, id := range w.Route {
		hop, v := r.Deliver(h)
		if v == Stop {
			return false
		}
		link := w.Links[h]
		if v == RouteAround {
			w.Cands = append(w.Cands, Candidate{Hop: h, Node: id, Tag: TagNoDescriptor, Link: link})
			w.Cost += link
			continue
		}
		// One engine step per hop: the probe and, on a miss, the node
		// observing the request pass through. A hop with a tier below
		// memory takes the step in its two halves, because a hit in that
		// tier must not age the d-cache.
		lk := tr.Start(span.PhaseLookup, id, h, parent, w.Now)
		var res LookupResult
		var c Candidate
		if hop.Tier == nil {
			res, c = hop.St.UpStep(w.Obj, w.Size, h, link, w.Now, floor)
		} else {
			res = hop.St.LookupFresh(w.Obj, w.Now, floor)
		}
		tr.End(lk, w.Now)
		if res.Hit {
			w.Serve, w.ServedBy, w.Gen = h, id, res.Gen
			break
		}
		if res.Expired || res.Stale {
			// Both freshness demotions send the request on upstream.
			w.Refetch = true
			if res.Stale {
				tr.Force(span.FlagStale)
			}
		}
		if hop.Tier != nil {
			served, gen, ev := hop.Tier.Serve(w.Obj, w.Size, w.Now, floor, w.evict)
			w.evict = ev
			if served {
				psp := tr.Start(span.PhasePromote, id, h, parent, w.Now)
				tr.End(psp, w.Now)
				w.Serve, w.ServedBy, w.Gen = h, id, gen
				break
			}
			c = hop.St.UpMiss(w.Obj, w.Size, h, link, w.Now)
		}
		up := tr.Start(span.PhaseUp, id, h, parent, w.Now)
		if tr != nil {
			w.upSpans[h] = up
			parent = up
		}
		tr.Annotate(up, c.Freq, c.CostLoss, int(c.Tag))
		w.Cands = append(w.Cands, c)
		w.Cost += link
	}

	var head uint64
	if w.ServedBy == model.NoNode && w.Auth != nil {
		// The origin serves its current generation, and in validating modes
		// its response carries the recent invalidation-log tail (PSI).
		w.Gen = w.Auth.Gen(w.Obj)
		if w.Mode.Validates() {
			w.inv = w.Auth.Tail(w.inv[:0])
			w.Tail, head = w.inv, w.Auth.Head()
		}
	}
	if w.Serve == 0 {
		// Nothing travels downstream, so the decision is empty; its phase
		// still lands in the span tree.
		dsp := tr.Start(span.PhaseDecide, w.ServedBy, 0, parent, w.Now)
		tr.End(dsp, w.Now)
		return true
	}

	// The serving point's decision.
	opts := w.Decide
	opts.Checks, opts.Obj, opts.Now = &w.Checks, w.Obj, w.Now
	if tr != nil {
		opts.Span, opts.SpanParent = tr, parent
	}
	w.Chosen = w.dec.Decide(w.Cands, opts, ServePoint{Hop: w.Serve, Node: w.ServedBy})

	// Downstream pass. Chosen ascends and the response descends, so a tail
	// cursor walks it; chosen hops the response routes around lose their
	// copy.
	last := len(w.Chosen) - 1
	mp := 0.0 // the response's miss-penalty counter
	for h := w.Serve - 1; h >= 0; h-- {
		hop, v := r.Deliver(h)
		if v == Stop {
			return false
		}
		if v == RouteAround {
			mp += w.Links[h]
			continue
		}
		id := w.Route[h]
		var up span.SpanID
		if tr != nil {
			up = w.upSpans[h]
		}
		if w.Tail != nil {
			// The tail lands before the placement step, so a placement at
			// the pre-write generation meets the freshly raised floor.
			coh := tr.Start(span.PhaseCoherency, id, h, up, w.Now)
			hop.St.ApplyInvalidations(w.Tail, head, w.Now)
			tr.End(coh, w.Now)
		}
		// prev is the counter as it left the last caching point, plus any
		// links routed around since: the penalty audit's reference.
		prev := mp
		mp += w.Links[h]
		for last >= 0 && w.Chosen[last] > h {
			last--
		}
		place := last >= 0 && w.Chosen[last] == h
		if place {
			last--
		}
		dn := tr.Start(span.PhaseDown, id, h, up, w.Now)
		out, ev := hop.St.DownStepUnder(w.Obj, w.Obj, w.Size, place, mp, w.Gen, w.Now, w.evict[:0], &w.Checks)
		w.evict = ev
		tr.Annotate(dn, mp, float64(len(ev)), span.DownOutcome(out.Placed, out.PlaceFailed))
		w.Decide.Audit.CheckPenaltyStep(&w.Checks, id, w.Obj, h, prev, mp, out.MP, out.Placed)
		mp = out.MP
		if out.Placed {
			r.Placed(h, len(ev))
			if hop.Tier != nil {
				bsp := tr.Start(span.PhaseBody, id, h, dn, w.Now)
				hop.Tier.Place(w.Obj, w.Size, w.Gen, w.Now, ev)
				tr.End(bsp, w.Now)
			}
		}
		tr.End(dn, w.Now)
		tr.End(up, w.Now)
	}
	return true
}
