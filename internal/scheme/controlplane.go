package scheme

import (
	"cascade/internal/cache"
	"cascade/internal/model"
)

// The replay simulator's control-plane surface, mirroring runtime.Cluster's
// Admit/Drain and the gateway's admin endpoints so the three incarnations
// stay conformance-comparable through membership changes. The simulator is
// single-threaded, so there is no epoch guard to wait on — a drain between
// two Process calls is trivially fenced.
//
// A draining node stays on the request path as a pure relay: the walk
// routes around it, so it ships the §2.4 "no descriptor" tag carrying only
// its link cost and takes no step on the response pass — the same wire
// behavior as a drained gateway node, and exactly the cluster routing
// around the node and folding the link.

// Drain performs a node's cooperative departure: its main cache empties in
// NCL eviction order, its d-cache is replaced by a fresh one, and the node
// becomes a relay until Admit. The returned descriptors are the spill —
// hand them to the parent with Absorb. A second Drain (or an unknown node)
// returns nil.
func (s *Coordinated) Drain(node model.NodeID, now float64) []cache.DescriptorSnapshot {
	nd := s.node(node)
	if nd == nil || nd.draining {
		return nil
	}
	nd.draining = true
	snaps := nd.st.DrainDescriptors(now)
	nd.st.ResetDCaches(s.dfac)
	return snaps
}

// Absorb offers a departing node's spilled descriptors to another node's
// d-cache (objects the node already knows are skipped). It returns how many
// were taken; a draining target refuses.
func (s *Coordinated) Absorb(node model.NodeID, snaps []cache.DescriptorSnapshot, now float64) int {
	nd := s.node(node)
	if nd == nil || nd.draining {
		return 0
	}
	return nd.st.Absorb(snaps, now)
}

// Admit returns a drained node to service. It rejoins empty — its state
// left with the drain. Reports whether a transition happened.
func (s *Coordinated) Admit(node model.NodeID) bool {
	nd := s.node(node)
	if nd == nil || !nd.draining {
		return false
	}
	nd.draining = false
	return true
}

// Draining reports whether the node is currently drained out of the
// protocol.
func (s *Coordinated) Draining(node model.NodeID) bool {
	nd := s.node(node)
	return nd != nil && nd.draining
}
