package runtime

import (
	"sync/atomic"

	"cascade/internal/engine"
	"cascade/internal/flightrec"
	"cascade/internal/model"
	"cascade/internal/store"
)

// node is one cache node's state. A slot's node is replaced wholesale on
// Recover and Admit (a restart keeps nothing in memory), so a walk that
// resolved the old node finishes harmlessly against unreachable state.
type node struct {
	id      model.NodeID
	cluster *Cluster
	down    atomic.Bool // set on crash (Fail), drain or cluster shutdown

	// st holds the node's protocol state (main store + d-cache stripes),
	// sharded by object hash; every protocol step delegates to
	// internal/engine. The shard locks make st safe for concurrent walks.
	st *engine.Sharded

	// bodies is the node's data plane (Config.SpillDir): payloads of
	// placed objects, with NCL evictions spilled to a per-node disk tier
	// instead of dropped. nil when spill is off — every hook checks, so
	// the default configuration pays nothing. The tier is internally
	// locked.
	bodies *store.Tiered
}

// stop marks the node down. Idempotent; reports whether this call
// performed the stop.
func (n *node) stop() bool { return n.down.CompareAndSwap(false, true) }

// Serve tries to serve a lookup miss from the node's disk spill tier (the
// node is its walk hop's engine.Tier when it has one).
// A SrcDisk hit is served at this hop without touching the rest of the
// cascade; when the store re-admits the descriptor the payload is promoted
// back to memory and the insertion's NCL victims spill in turn (a failed
// re-admission still serves the bytes — the copy simply stays on disk).
// floor is the request's ModeCAS read floor: a disk copy below it (or below
// the node's own generation floor — the tier and engine both check) is
// dropped and the pass continues upstream, never serving stale bytes.
// evict is a reusable victim-ID buffer, returned possibly grown. The served
// copy's generation is returned alongside.
func (n *node) Serve(obj model.ObjectID, size int64, now float64, floor uint64, evict []model.ObjectID) (bool, uint64, []model.ObjectID) {
	body, meta, src := n.bodies.Get(obj)
	if src != store.SrcDisk {
		return false, 0, evict
	}
	c := n.cluster
	if meta.Gen < floor {
		// The copy predates the write this request must observe (CAS):
		// self-heal to a miss.
		if view := n.st.Coherency(); view != nil {
			view.Metrics().StaleHit()
		}
		c.flightRecorder(n.id).Record(flightrec.Event{
			Time: now, Node: n.id, Kind: flightrec.KindStaleHit,
			Obj: obj, Hop: -1, A: float64(meta.Gen), B: float64(floor), N: 1,
		})
		n.bodies.Delete(obj)
		return false, 0, evict
	}
	out, ev := n.st.PromoteUnder(obj, obj, size, meta.Gen, now, evict[:0])
	if out.Stale {
		// The node's floor moved past the spill while it sat on disk; the
		// engine counted the stale hit — drop the bytes and miss.
		n.bodies.Delete(obj)
		return false, 0, ev
	}
	if out.Placed {
		n.bodies.Promote(obj, body, meta)
		c.promotions.Add(1)
		inst := &c.nodeInst[n.id]
		inst.inserts.Inc()
		inst.evictions.Add(int64(len(ev)))
		for _, v := range ev {
			n.spill(v)
		}
		// A concurrent placement may have evicted the object between the
		// store insert and the tier move above (the shard lock does not
		// cover the body store); its spill found no memory body then, so
		// re-spill here to keep bytes and descriptors aligned.
		n.spill(obj)
	}
	c.spillHits.Add(1)
	return true, meta.Gen, ev
}

// Place records a downstream placement in the data plane: the payload
// (synthesized — the runtime carries no real bytes) enters the memory tier
// at the served generation and each NCL victim's bytes spill to the disk
// tier.
func (n *node) Place(obj model.ObjectID, size int64, gen uint64, now float64, ev []model.ObjectID) {
	n.bodies.Put(obj, store.SyntheticBody(obj, int(size)), store.Meta{Fetched: now, Gen: gen})
	for _, v := range ev {
		n.spill(v)
	}
	// Close the race with a concurrent eviction of obj itself: its spill
	// ran before the Put above and found nothing, so this one moves the
	// body out of the memory tier.
	n.spill(obj)
}

// spill parks an evicted object's bytes on disk unless its descriptor is in
// the main store: a victim may have been placed again, and its fresh body
// stored, between the eviction and this call. The tier asks under its own
// lock, so no placement's body lands between the answer and the move.
func (n *node) spill(obj model.ObjectID) {
	if n.bodies.SpillUnless(obj, n.st.Contains) {
		n.cluster.spills.Add(1)
	}
}
