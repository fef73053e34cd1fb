package runtime

import (
	"sync/atomic"

	"cascade/internal/engine"
	"cascade/internal/store"
)

// node is one cache node's state. A slot's node is replaced wholesale on
// Recover and Admit (a restart keeps nothing in memory), so a walk that
// resolved the old node finishes harmlessly against unreachable state.
type node struct {
	down atomic.Bool // set on crash (Fail), drain or cluster shutdown

	// st holds the node's protocol state (main store + d-cache stripes),
	// sharded by object hash; every protocol step delegates to
	// internal/engine. The shard locks make st safe for concurrent walks.
	st *engine.Sharded

	// bodies is the node's data plane (Config.SpillDir): payloads of
	// placed objects, with NCL evictions spilled to a per-node disk tier
	// instead of dropped. The engine's hop step moves them with the
	// descriptors (engine.Hop.Tier); nil when spill is off, and the
	// default configuration pays nothing. The tier is internally locked.
	bodies *store.Tiered
}

// stop marks the node down. Idempotent; reports whether this call
// performed the stop.
func (n *node) stop() bool { return n.down.CompareAndSwap(false, true) }
