package engine

import (
	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// LookupResult reports a freshness-aware upstream probe.
type LookupResult struct {
	// Hit reports a fresh cache hit: the copy passed every freshness
	// check and this node is the serving node.
	Hit bool
	// Gen is the served copy's coherency generation (meaningful only on
	// a hit; zero when coherency is off).
	Gen uint64
	// Stale reports that a copy was present but below the generation
	// floor: it self-healed to a miss (removed from the store, its
	// descriptor demoted to the d-cache) and the pass continues upstream.
	Stale bool
	// Expired reports that a copy was present but outlived the TTL
	// lifetime: demoted like Stale, and the refetch travels the path as
	// an ordinary miss.
	Expired bool
}

// LookupFresh probes the node during the upstream pass, enforcing the
// node's coherency mode. floor is the request-carried read floor (CAS
// strict mode: the object's current generation at the origin, so a read
// after a write never observes the old bytes; zero otherwise). A copy
// below max(floor, node floor) — or past its TTL lifetime — self-heals to
// a miss, cascache-style: the copy is dropped, the descriptor keeps its
// history in the d-cache, and the caller continues the pass upstream.
//
// With no coherency view attached this is exactly the pre-coherency
// Lookup: one nil check on the hot path.
func (st *nodeState) LookupFresh(obj model.ObjectID, now float64, floor uint64) LookupResult {
	q := Req{Obj: obj, FloorObj: obj, Now: now}
	return st.probe(&q, st.readFloor(obj, floor), false, nil, false).LookupResult
}

// probed is a probe's outcome beyond the LookupResult: whether the copy
// was demoted (stale, expired or without its bytes), is a copy old enough
// to Revalidate, or one to recheck, both of which the probe left untouched.
type probed struct {
	LookupResult
	// Revalidate: a copy older than Req.MaxAge.
	Revalidate       bool
	demoted, recheck bool
}

// probe is the memory half of Up, under the shard lock: q.Obj's resident
// copy is checked against the coherency view's lifetime (ModeTTL), the read
// floor and q's pin, and — at a hop that keeps bytes (tiered) — against its
// bytes' metadata mem, nil when the memory tier lacks them: a copy without
// its bytes is demoted like a stale one, and a copy whose bytes are older
// than q.MaxAge is handed back for revalidation. With recheck set, a copy
// without its bytes is handed back untouched instead, for the caller to
// read them again: a placement may have landed since its read. A copy that
// passes is a hit: its access history is refreshed and the ledger books
// the saving.
func (st *nodeState) probe(q *Req, floor uint64, tiered bool, mem *store.Meta, recheck bool) (p probed) {
	d := st.Store.Get(q.Obj)
	if d == nil {
		return p
	}
	switch {
	case st.Coh != nil && st.Coh.Expired(q.Obj, q.Now):
		st.demote(q.Obj, q.Now)
		st.Coh.Metrics().Revalidation()
		st.record(span.PhaseRevalidate, q.Trace.ID(), q.Obj, q.Now, float64(d.Gen), 0, 0)
		p.Expired, p.demoted = true, true
	case d.Gen < floor || (q.Pinned && d.Gen != q.Pin):
		st.demote(q.Obj, q.Now)
		st.staleHit(q, d.Gen, floor)
		p.Stale, p.demoted = true, true
	case tiered && (mem == nil || mem.Gen != d.Gen) && recheck:
		p.recheck = true
	case tiered && (mem == nil || mem.Gen != d.Gen):
		st.demote(q.Obj, q.Now)
		p.demoted = true
	case mem != nil && q.MaxAge > 0 && q.Now-mem.Fetched > q.MaxAge:
		p.Revalidate = true
	default:
		// The hit avoids the copy's current miss penalty — read it before
		// TouchEntry refreshes the access history.
		avoided := d.MissPenalty()
		st.Store.TouchEntry(d, q.Now)
		if st.Ledger != nil {
			st.Ledger.RecordHit(st.Node, avoided)
		}
		p.Hit, p.Gen = true, d.Gen
	}
	return p
}

// readFloor is the effective read floor for obj: the node's floor raised to
// the request's, in validating modes; zero otherwise, so no copy is below
// it.
func (st *nodeState) readFloor(obj model.ObjectID, floor uint64) uint64 {
	if st.Coh == nil || !st.Coh.Mode().Validates() {
		return 0
	}
	return max(st.Coh.Floor(obj), floor)
}

// staleHit counts q's copy dropped below its read floor (or off its pin)
// and records it: the copy's generation and the floor it failed.
func (st *nodeState) staleHit(q *Req, gen, floor uint64) {
	if st.Coh != nil {
		st.Coh.Metrics().StaleHit()
	}
	st.record(span.PhaseStaleHit, q.Trace.ID(), q.Obj, q.Now, float64(gen), float64(floor), 1)
}

// record writes one of the node's own events into its ring, under trace tr
// — the request that caused it, zero when none did.
func (st *nodeState) record(ph span.Phase, tr span.TraceID, obj model.ObjectID, now, a, b float64, n int) {
	if st.Ring != nil {
		e := span.Event(ph, st.Node, now)
		e.Trace, e.Obj, e.A, e.B, e.N = tr, obj, a, b, n
		st.Ring.Add(e)
	}
}

// demote removes a cached copy, keeping its descriptor (and access
// history) in the d-cache — the freshness analogue of an NCL eviction.
func (st *nodeState) demote(obj model.ObjectID, now float64) bool {
	d := st.Store.Remove(obj)
	if d == nil {
		return false
	}
	st.DCache.Put(d, now)
	if st.Coh != nil {
		st.Coh.Forget(obj)
	}
	return true
}

// applyInvalidation applies one invalidation-log entry: if it is news
// (past the cursor) the floor is raised and any held copy older than the
// new floor is demoted. Reports whether the floor actually moved and
// whether a copy was demoted. The caller advances the cursor after the
// batch.
func (st *nodeState) applyInvalidation(tr span.TraceID, inv coherency.Invalidation, now float64) (raised, dropped bool) {
	if !st.Coh.ShouldApply(inv.Seq) {
		return false, false
	}
	raised = st.Coh.Raise(inv.Obj, inv.Gen)
	if d := st.Store.Get(inv.Obj); d != nil && d.Gen < inv.Gen {
		dropped = st.demote(inv.Obj, now)
	}
	if !raised && !dropped {
		return false, false
	}
	if raised {
		st.Coh.Metrics().Invalidation()
	}
	n := 0
	if dropped {
		n = 1
	}
	st.record(span.PhaseInvalidate, tr, inv.Obj, now, float64(inv.Gen), float64(inv.Seq), n)
	return raised, dropped
}

// ApplyInvalidations applies a piggybacked (or pushed) slice of
// invalidation-log entries at this node and advances the PSI cursor to
// head (pass 0 for an out-of-band push that must not mark intermediate
// entries as seen). Only validating modes (PSI, CAS) consume
// invalidations; others ignore them. Returns how many entries raised a
// floor.
func (st *nodeState) ApplyInvalidations(tail []coherency.Invalidation, head uint64, now float64) int {
	if st.Coh == nil || !st.Coh.Mode().Validates() {
		return 0
	}
	applied := 0
	for _, inv := range tail {
		if raised, _ := st.applyInvalidation(span.TraceID{}, inv, now); raised {
			applied++
		}
	}
	st.Coh.AdvanceCursor(head)
	return applied
}
