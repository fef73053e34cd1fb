package scheme

import (
	"cascade/internal/cache"
	"cascade/internal/model"
)

// LRU is the baseline "cache everywhere" scheme: the requested object is
// inserted at every cache between the serving node and the client, and
// each cache independently evicts its least recently used objects.
type LRU struct {
	caches map[model.NodeID]*cache.LRU
	placed []int // scratch reused across Process calls
}

// NewLRU returns an unconfigured LRU scheme.
func NewLRU() *LRU { return &LRU{} }

// Name implements Scheme.
func (s *LRU) Name() string { return "LRU" }

// Configure implements Scheme.
func (s *LRU) Configure(budgets map[model.NodeID]NodeBudget) {
	s.caches = make(map[model.NodeID]*cache.LRU, len(budgets))
	for n, b := range budgets {
		s.caches[n] = cache.NewLRU(b.CacheBytes)
	}
}

// Process implements Scheme: lookup upward from the client cache, then
// insert at every cache below the serving node.
func (s *LRU) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	hit := path.OriginIndex()
	for i := range path.Nodes {
		c := s.caches[path.Nodes[i]]
		if c.Contains(obj) {
			c.Touch(obj)
			hit = i
			break
		}
	}
	placed := s.placed[:0]
	for i := hit - 1; i >= 0; i-- {
		if _, ok := s.caches[path.Nodes[i]].Insert(obj, size); ok {
			placed = append(placed, i)
		}
	}
	s.placed = placed
	return Outcome{HitIndex: hit, Placed: placed}
}

// Cache exposes a node's store for tests.
func (s *LRU) Cache(n model.NodeID) *cache.LRU { return s.caches[n] }
