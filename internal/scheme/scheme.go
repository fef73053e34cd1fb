// Package scheme implements the four cache-management schemes the paper
// evaluates — LRU, MODULO, LNC-R and the proposed coordinated scheme — plus
// two extra single-cache baselines (LFU, GreedyDual-Size).
//
// A Scheme owns the cache state of every node and processes one request at
// a time: the simulator resolves the distribution-tree path, scales the
// per-link delays to the object's size, and hands the scheme the whole
// request/response traversal. The scheme reports where the request hit and
// where copies were placed; the simulator derives latency, hit ratios,
// traffic and load from that outcome. This boundary mirrors the paper's
// protocol: everything a scheme may use is information that the request
// message could piggyback on its way up and the response could carry back
// down.
package scheme

import (
	"cascade/internal/model"
)

// Path is the request's view of its distribution-tree path, with link
// costs already scaled to the requested object's size.
type Path struct {
	// Nodes[0] is the cache where the request originates (the paper's
	// A_n); Nodes[len-1] is the highest-level cache before the origin
	// (A_1).
	Nodes []model.NodeID
	// UpCost[i] is the cost of the link from Nodes[i] toward the origin:
	// to Nodes[i+1] for i < len-1, and to the origin server for the last
	// node. len(UpCost) == len(Nodes).
	UpCost []float64
}

// Len returns the number of caches on the path.
func (p Path) Len() int { return len(p.Nodes) }

// OriginIndex is the HitIndex value meaning "served by the origin server":
// one past the last cache.
func (p Path) OriginIndex() int { return len(p.Nodes) }

// CostTo returns the access cost of a hit at index level (OriginIndex for
// an origin hit): the sum of link costs crossed by the request and its
// response.
func (p Path) CostTo(level int) float64 {
	var c float64
	for i := 0; i < level; i++ {
		c += p.UpCost[i]
	}
	return c
}

// Outcome reports how one request was served and what the response pass
// changed.
type Outcome struct {
	// HitIndex is the index into Path.Nodes of the serving cache, or
	// Path.OriginIndex() when the origin served the request.
	HitIndex int
	// Placed lists the indices (into Path.Nodes) where a new copy of the
	// object was inserted on the response pass. The slice aliases the
	// scheme's reusable scratch buffer: it is valid only until the next
	// Process call on the same scheme — copy it to retain it.
	Placed []int
	// PiggybackBytes estimates the meta-information the scheme attached
	// to the request and response messages (coordinated caching only);
	// it quantifies the protocol's communication overhead.
	PiggybackBytes int64
	// ServedGen is the coherency generation of the served copy — the
	// origin's current generation for an origin hit, the cached copy's
	// stamped generation for a cache hit. Zero when coherency is off.
	ServedGen uint64
	// Refetch reports that a TTL-expired copy was demoted on the
	// upstream pass, turning a would-be hit into a revalidating miss
	// that travelled the rest of the path.
	Refetch bool
}

// NodeBudget sizes one cache node: its main-cache byte capacity and — for
// schemes that keep one — the number of descriptors its d-cache holds.
type NodeBudget struct {
	CacheBytes    int64
	DCacheEntries int
}

// Uniform builds the equal-budget map of the paper's setup: every node
// gets the same capacity and d-cache size.
func Uniform(nodes []model.NodeID, capacity int64, dcacheEntries int) map[model.NodeID]NodeBudget {
	out := make(map[model.NodeID]NodeBudget, len(nodes))
	for _, n := range nodes {
		out[n] = NodeBudget{CacheBytes: capacity, DCacheEntries: dcacheEntries}
	}
	return out
}

// Scheme is a complete cache-management algorithm over a set of cache
// nodes. Implementations are not safe for concurrent use: the simulator
// replays a trace sequentially, mirroring the paper's setup.
type Scheme interface {
	// Name identifies the scheme in reports ("LRU", "COORD", …).
	Name() string
	// Configure (re)initializes per-node state from the given budgets
	// (the paper's setup is Uniform; heterogeneous budgets model
	// deployments that size caches by level or location).
	Configure(budgets map[model.NodeID]NodeBudget)
	// Process executes one request/response traversal at time now.
	Process(now float64, obj model.ObjectID, size int64, path Path) Outcome
}

// descriptorWireBytes approximates the serialized size of one object
// descriptor (object ID, size, frequency, miss penalty, cost loss) when
// piggybacked on a message — "typically a few tens of bytes" (§2.4).
const descriptorWireBytes = 40

// invalidationWireBytes is the serialized size of one invalidation-log
// entry (sequence, object ID, generation — three u64s) piggybacked on an
// origin response.
const invalidationWireBytes = 24
