package engine

import (
	"fmt"

	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// The hop step is the per-cache work of paper §2.3 in its two halves: Up as
// the request passes toward the origin (probe; on a miss, piggyback the
// hop's record), Down as the response passes back (land the invalidation
// tail, update the miss-penalty counter, cache if told to, evict in NCL
// order). Walk.Run calls them for every hop of a path; the HTTP gateway for
// its one hop. A hop's bytes (Hop.Tier) move in the same step as its
// descriptors, so every copy the engine demotes — a victim, a stale or
// expired copy, an invalidated one — loses its bytes in that step.

// Hop is the node a delivery reached.
type Hop struct {
	// St is the node's protocol state.
	St *Sharded
	// Tier is the node's body store, memory and any disk tier below it;
	// nil when the node keeps no bytes.
	Tier *store.Tiered
}

// Req is one request as its hop steps see it. The caller fills in the
// fields; the steps keep victim scratch in it, so a Req reused across
// requests lets them run without allocating.
type Req struct {
	// Obj is the identity the hop caches; FloorObj the one whose generation
	// governs it — a segment's base, Obj itself otherwise.
	Obj, FloorObj model.ObjectID
	// Size is 0 when unknown on the way up (UpMiss reads the descriptor's).
	Size int64
	// Now is the protocol clock; Clock, when set, stamps span ends.
	Now   float64
	Clock func() float64
	// Floor is the request's read floor; Pin, when Pinned, the one
	// generation a segment's reassembly accepts. A copy whose bytes are
	// older than a positive MaxAge is handed back for revalidation.
	Floor  uint64
	Pin    uint64
	Pinned bool
	MaxAge float64
	// On the way down: the served generation and the response's
	// invalidation-log tail and head.
	Gen  uint64
	Tail []coherency.Invalidation
	Head uint64
	// Trace is the span trace (nil: off); Audit checks every penalty step,
	// tallied in Checks (nil: on Audit at once).
	Trace  *span.Trace
	Audit  *audit.Auditor
	Checks *audit.Tally

	victims, dropped []model.ObjectID
}

// end is the stamp a step closes its spans with; the clock is read only
// for a trace.
func (q *Req) end() float64 {
	if q.Trace != nil && q.Clock != nil {
		return q.Clock()
	}
	return q.Now
}

// UpResult is one hop's upstream step.
type UpResult struct {
	// The probe's outcome: Hit at generation Gen; Stale and Expired, a copy
	// dropped — below the read floor, off the pin or expired — for the
	// request to go on upstream for a fresh one; Revalidate, a copy older
	// than Req.MaxAge, left untouched.
	probed
	// FromTier: the hit came from the tier below memory, re-admitting the
	// copy when Promoted (evicting Evicted victims).
	FromTier, Promoted bool
	Evicted            int
	// Body and Meta are the served (or revalidated) copy's bytes.
	Body []byte
	Meta store.Meta
	// Floor is the effective read floor, for the transport to forward.
	Floor uint64
	// Spilled counts victims whose bytes went below memory.
	Spilled int
	// Cand is the hop's piggyback record and Span its up span, which
	// parents the next hop and Down; both set only on a miss.
	Cand Candidate
	Span span.SpanID
}

// Up is one hop's upstream step: a freshness-checked probe and, on a miss,
// the miss-side bookkeeping, under one shard lock. idx is the hop's index
// from the requesting cache, link the cost of its link toward the origin.
// At a hop with a tier the bytes are read first: a copy without them is
// read once more — a placement may have landed between the read and the
// probe — and then demoted inside the probe, a miss like any other; a
// memory miss tries the disk copy, which does not age the d-cache. The
// result lands in r.
func Up(h Hop, q *Req, idx int, link float64, parent span.SpanID, r *UpResult) {
	*r = UpResult{}
	st, tr, id := h.St, q.Trace, h.St.Node()
	lk := tr.Start(span.PhaseLookup, id, idx, parent, q.Now)
	r.Floor = st.ReadFloor(q.FloorObj, q.Floor)
	src := store.SrcNone
	var c Candidate
	for recheck := h.Tier != nil; ; recheck = false {
		var mem *store.Meta
		if h.Tier != nil {
			if r.Body, r.Meta, src = h.Tier.Get(q.Obj); src == store.SrcMemory {
				mem = &r.Meta
			}
		}
		if r.probed, c = st.up(q, r.Floor, h.Tier != nil, mem, recheck, idx, link, src == store.SrcDisk); !r.recheck {
			break
		}
	}
	if r.Stale {
		tr.Force(span.FlagStale)
	}
	if r.Hit || r.Revalidate {
		tr.End(lk, q.end())
		return
	}
	if r.demoted && src == store.SrcMemory {
		h.Tier.DeleteUnless(q.Obj, st.Contains)
	}
	if src == store.SrcDisk {
		if h.fromTier(q, r) {
			end := q.end()
			tr.End(lk, end)
			tr.End(tr.Start(span.PhasePromote, id, idx, parent, end), end)
			return
		}
		c = st.UpMiss(q.Obj, q.Size, idx, link, q.Now)
	}
	r.Body, r.Meta = nil, store.Meta{}
	end := q.end()
	tr.End(lk, end)
	r.Cand, r.Span = c, tr.Start(span.PhaseUp, id, idx, parent, end)
	tr.Annotate(r.Span, c.Freq, c.CostLoss, int(c.Tag))
}

// fromTier serves the disk copy Up read into r when it meets the read
// floor, the pin and MaxAge, re-admitting its descriptor (a failed
// re-admission still serves; the copy stays on disk). A copy that fails is
// dropped, and the step goes on as a miss.
func (h Hop) fromTier(q *Req, r *UpResult) bool {
	gen := r.Meta.Gen
	if gen < r.Floor || (q.Pinned && gen != q.Pin) {
		// The tier screens files against Obj's floor only.
		h.Tier.DeleteUnless(q.Obj, h.St.Contains)
		h.St.shards[0].st.staleHit(q, gen, r.Floor)
		q.Trace.Force(span.FlagStale)
		return false
	}
	if q.MaxAge > 0 && q.Now-r.Meta.Fetched > q.MaxAge {
		h.Tier.DeleteUnless(q.Obj, h.St.Contains)
		return false
	}
	var placed, stale bool
	h.Tier.Admit(q.Obj, r.Body, r.Meta, true, func() bool {
		placed, stale = h.St.promote(q, int64(len(r.Body)), gen)
		return placed
	})
	if stale { // the node's floor passed the copy; the engine counted it
		h.Tier.DeleteUnless(q.Obj, h.St.Contains)
		return false
	}
	if placed {
		r.Promoted, r.Evicted = true, len(q.victims)
		r.Spilled = h.Spill(q, q.victims)
	}
	r.Hit, r.FromTier, r.Gen = true, true, gen
	return true
}

// DownResult is one hop's downstream step.
type DownResult struct {
	DownOutcome
	// Evicted counts the placement's victims, Spilled those whose bytes
	// went below memory.
	Evicted, Spilled int
}

// Down is one hop's downstream step. The invalidation tail lands first
// (Land), so a placement at the pre-write generation meets the raised
// floor; then the penalty step caches the object (Place) when place is set,
// and updates the d-cache otherwise, and a placement's victims spill. prev
// is the counter as it left the last caching point, mp the counter
// including this hop's link. up is the hop's up span, which Down closes.
func Down(h Hop, q *Req, idx int, up span.SpanID, place bool, prev, mp float64, body []byte, etag string) (r DownResult) {
	tr, id := q.Trace, h.St.Node()
	h.Land(q, idx, up)
	dn := tr.Start(span.PhaseDown, id, idx, up, q.Now)
	out, ev := h.Place(q, place, mp, body, etag)
	tr.Annotate(dn, mp, float64(len(ev)), span.DownOutcome(out.Placed, out.PlaceFailed))
	q.Audit.CheckPenaltyStep(q.Checks, id, q.Obj, idx, prev, mp, out.MP, out.Placed)
	r.DownOutcome, r.Evicted = out, len(ev)
	if out.Placed && h.Tier != nil {
		bsp := tr.Start(span.PhaseBody, id, idx, dn, q.Now)
		r.Spilled = h.Spill(q, ev)
		tr.End(bsp, q.Now)
	}
	end := q.end()
	tr.End(dn, end)
	tr.End(up, end)
	return r
}

// Land lands the response's invalidation tail (q.Tail up to q.Head) at the
// hop, under a coherency span parented on up: Down's first act, and the
// only one of a hop the response passes without a down step.
func (h Hop) Land(q *Req, idx int, up span.SpanID) {
	if len(q.Tail) == 0 && q.Head == 0 {
		return
	}
	coh := q.Trace.Start(span.PhaseCoherency, h.St.Node(), idx, up, q.Now)
	_, q.dropped = h.invalidate(q.Trace.ID(), q.Tail, q.Head, q.Now, q.dropped[:0])
	q.Trace.End(coh, q.end())
}

// Place is Down's penalty step (Sharded.DownStepUnder), caching q.Obj at
// generation q.Gen when place is set. At a hop with a tier the placement's
// bytes (body, with validator etag) land under the tier's lock together
// with the descriptor (store.Tiered.Admit): no reader finds one without the
// other, and no concurrent eviction of the object spills between them. It
// returns the victims, whose bytes the caller spills (Spill); the slice is
// q's scratch.
func (h Hop) Place(q *Req, place bool, mp float64, body []byte, etag string) (out DownOutcome, victims []model.ObjectID) {
	if !place || h.Tier == nil {
		out, q.victims = h.St.DownStepUnder(q.Obj, q.FloorObj, q.Size, place, mp, q.Gen, q.Now, q.victims[:0], q.Checks)
		return out, q.victims
	}
	h.Tier.Admit(q.Obj, body, store.Meta{ETag: etag, Fetched: q.Now, Gen: q.Gen}, false, func() bool {
		out, q.victims = h.St.DownStepUnder(q.Obj, q.FloorObj, q.Size, true, mp, q.Gen, q.Now, q.victims[:0], q.Checks)
		return out.Placed
	})
	return out, q.victims
}

// ApplyInvalidations lands an invalidation batch at the hop
// (Sharded.Invalidate) and drops the bytes of every copy it demoted, unless
// a placement stored fresh ones since. It reports how many entries raised a
// floor, and appends the demoted objects to dropped, a caller-owned buffer
// returned possibly grown.
func (h Hop) ApplyInvalidations(tail []coherency.Invalidation, head uint64, now float64, dropped []model.ObjectID) (int, []model.ObjectID) {
	return h.invalidate(span.TraceID{}, tail, head, now, dropped)
}

// invalidate is ApplyInvalidations recording its invalidate events under
// trace tr, the request whose response carried the batch (zero: none).
func (h Hop) invalidate(tr span.TraceID, tail []coherency.Invalidation, head uint64, now float64, dropped []model.ObjectID) (int, []model.ObjectID) {
	applied, dropped := h.St.Invalidate(tr, tail, head, now, dropped)
	if h.Tier != nil {
		for _, obj := range dropped {
			h.Tier.DeleteUnless(obj, h.St.Contains)
		}
	}
	return applied, dropped
}

// Spill parks the bytes of q's evicted copies below memory and reports how
// many reached disk, recording each spill under q's trace. A victim placed
// again since its eviction keeps its fresh bytes in memory: the tier asks
// the descriptor store under its own lock, so no placement's bytes land
// between the answer and the move.
func (h Hop) Spill(q *Req, victims []model.ObjectID) int {
	n := 0
	for _, v := range victims {
		if h.Tier == nil {
			break
		}
		if size, ok := h.Tier.SpillUnless(v, h.St.Contains); ok {
			h.St.shards[0].st.record(span.PhaseSpill, q.Trace.ID(), v, q.Now, float64(size), 0, 0)
			n++
		}
	}
	return n
}

// CheckBytes reports a disagreement between the hop's memory tier and its
// descriptor store, which the steps keep holding the same objects and
// bytes; nil when they agree or the hop keeps no bytes. The hop must be
// quiescent.
func (h Hop) CheckBytes() error {
	if h.Tier == nil {
		return nil
	}
	bs := h.Tier.Stats()
	if used, objs := h.St.Used(), h.St.StoreLen(); bs.MemBytes != used || bs.MemObjects != objs {
		return fmt.Errorf("node %d: memory tier holds %d objects (%d bytes), descriptor store %d (%d bytes)",
			h.St.Node(), bs.MemObjects, bs.MemBytes, objs, used)
	}
	return nil
}
