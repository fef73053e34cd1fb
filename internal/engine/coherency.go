package engine

import (
	"cascade/internal/coherency"
	"cascade/internal/flightrec"
	"cascade/internal/model"
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
// a miss, cascache-style: the bytes are dropped, the descriptor keeps its
// history in the d-cache, and the caller continues the pass upstream.
//
// With no coherency view attached this is exactly the pre-coherency
// Lookup: one nil check on the hot path.
func (st *nodeState) LookupFresh(obj model.ObjectID, now float64, floor uint64) LookupResult {
	d := st.Store.Get(obj)
	if d == nil {
		return LookupResult{}
	}
	if st.Coh != nil {
		if st.Coh.Expired(obj, now) {
			st.demote(obj, now)
			st.Coh.Metrics().Revalidation()
			if st.Flight != nil {
				st.Flight.Record(flightrec.Event{Time: now, Node: st.Node, Kind: flightrec.KindRevalidate, Obj: obj, Hop: -1, A: float64(d.Gen)})
			}
			return LookupResult{Expired: true}
		}
		if st.Coh.Mode().Validates() {
			if f := st.Coh.Floor(obj); f > floor {
				floor = f
			}
			if d.Gen < floor {
				st.demote(obj, now)
				st.Coh.Metrics().StaleHit()
				if st.Flight != nil {
					st.Flight.Record(flightrec.Event{Time: now, Node: st.Node, Kind: flightrec.KindStaleHit, Obj: obj, Hop: -1, A: float64(d.Gen), B: float64(floor), N: 1})
				}
				return LookupResult{Stale: true}
			}
		}
	}
	// The hit avoids the copy's current miss penalty — read it before
	// TouchEntry refreshes the access history.
	avoided := d.MissPenalty()
	st.Store.TouchEntry(d, now)
	if st.Ledger != nil {
		st.Ledger.RecordHit(st.Node, avoided)
	}
	return LookupResult{Hit: true, Gen: d.Gen}
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
// new floor is dropped. Reports whether the floor actually moved. The
// caller advances the cursor after the batch.
func (st *nodeState) applyInvalidation(inv coherency.Invalidation, now float64) bool {
	if !st.Coh.ShouldApply(inv.Seq) {
		return false
	}
	raised := st.Coh.Raise(inv.Obj, inv.Gen)
	dropped := 0
	if d := st.Store.Get(inv.Obj); d != nil && d.Gen < inv.Gen {
		if st.demote(inv.Obj, now) {
			dropped = 1
		}
	}
	if !raised && dropped == 0 {
		return false
	}
	if raised {
		st.Coh.Metrics().Invalidation()
	}
	if st.Flight != nil {
		st.Flight.Record(flightrec.Event{Time: now, Node: st.Node, Kind: flightrec.KindInvalidate, Obj: inv.Obj, Hop: -1, A: float64(inv.Gen), B: float64(inv.Seq), N: dropped})
	}
	return raised
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
		if st.applyInvalidation(inv, now) {
			applied++
		}
	}
	st.Coh.AdvanceCursor(head)
	return applied
}
