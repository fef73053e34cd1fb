package engine

import (
	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
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
// runs this one, one Up and one Down per hop. The owner sets the inputs,
// calls Run and reads the outputs; the scratch is kept for the next
// request. A Walk belongs to one goroutine at a time.
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
	// FromTier reports that the serving hop answered from its tier below
	// memory, and Promoted that the copy re-entered memory there, evicting
	// PromoteEvicted victims.
	FromTier, Promoted bool
	PromoteEvicted     int
	// Spills counts the victims whose bytes went below memory, either pass.
	Spills int
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
	req     Req
	up      UpResult
	upSpans []span.SpanID
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
	q := &w.req
	q.Obj, q.FloorObj, q.Size, q.Now = w.Obj, w.Obj, w.Size, w.Now
	q.Trace, q.Audit, q.Checks = tr, w.Decide.Audit, &w.Checks
	q.Floor, q.Gen, q.Tail, q.Head = 0, 0, nil, 0
	if w.Auth != nil && w.Mode == coherency.ModeCAS {
		// CAS: the request carries the object's current generation as a
		// read floor, so a stale copy self-heals to a miss.
		q.Floor = w.Auth.Gen(w.Obj)
	}
	w.Serve, w.ServedBy, w.Gen, w.Refetch = len(w.Route), model.NoNode, 0, false
	w.FromTier, w.Promoted, w.PromoteEvicted, w.Spills = false, false, 0, 0
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
		up := &w.up
		Up(hop, q, h, link, parent, up)
		w.Refetch = w.Refetch || up.Stale || up.Expired
		w.Spills += up.Spilled
		if up.Hit {
			w.Serve, w.ServedBy, w.Gen = h, id, up.Gen
			w.FromTier, w.Promoted, w.PromoteEvicted = up.FromTier, up.Promoted, up.Evicted
			break
		}
		if tr != nil {
			w.upSpans[h] = up.Span
			parent = up.Span
		}
		w.Cands = append(w.Cands, up.Cand)
		w.Cost += link
	}

	if w.ServedBy == model.NoNode && w.Auth != nil {
		// The origin serves its current generation, and in validating modes
		// its response carries the recent invalidation-log tail (PSI).
		w.Gen = w.Auth.Gen(w.Obj)
		if w.Mode.Validates() {
			w.inv = w.Auth.Tail(w.inv[:0])
			w.Tail, q.Head = w.inv, w.Auth.Head()
		}
	}
	q.Gen, q.Tail = w.Gen, w.Tail
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
	return w.down(r)
}

// down is the walk's downstream pass: Chosen ascends and the response
// descends, so a tail cursor walks it; chosen hops the response routes
// around lose their copy.
func (w *Walk) down(r Router) bool {
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
		var up span.SpanID
		if w.Trace != nil {
			up = w.upSpans[h]
		}
		var body []byte
		if place && hop.Tier != nil {
			// The walk carries no real bytes; a hop that stores them gets
			// the object's synthetic payload.
			body = store.SyntheticBody(w.Obj, int(w.Size))
		}
		out := Down(hop, &w.req, h, up, place, prev, mp, body, "")
		w.Spills += out.Spilled
		mp = out.MP
		if out.Placed {
			r.Placed(h, out.Evicted)
		}
	}
	return true
}
