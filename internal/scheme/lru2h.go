package scheme

import (
	"cascade/internal/cache"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/freq"
	"cascade/internal/model"
)

// LRU2H is an admission-controlled LRU in the spirit of Aggarwal, Wolf &
// Yu's generalized caching with admission control (related work, [2]): a
// node only admits an object it has seen before — the first pass merely
// records a descriptor in the d-cache, the second pass (while the
// descriptor survives) inserts. Replacement stays LRU, so the scheme
// isolates the value of admission control alone: one-hit wonders never
// displace established content, but no placement coordination happens.
type LRU2H struct {
	caches  map[model.NodeID]*cache.LRU
	dcaches map[model.NodeID]dcache.DCache
	placed  []int           // scratch reused across Process calls
	pool    engine.DescPool // recycles descriptors evicted by the d-caches
}

// NewLRU2H returns an unconfigured second-hit LRU scheme.
func NewLRU2H() *LRU2H { return &LRU2H{} }

// Name implements Scheme.
func (s *LRU2H) Name() string { return "LRU-2H" }

// Configure implements Scheme.
func (s *LRU2H) Configure(budgets map[model.NodeID]NodeBudget) {
	s.caches = make(map[model.NodeID]*cache.LRU, len(budgets))
	s.dcaches = make(map[model.NodeID]dcache.DCache, len(budgets))
	for n, b := range budgets {
		s.caches[n] = cache.NewLRU(b.CacheBytes)
		s.dcaches[n] = dcache.New(b.DCacheEntries)
		s.pool.Attach(s.dcaches[n])
	}
}

// Process implements Scheme.
func (s *LRU2H) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	hit := path.OriginIndex()
	for i := range path.Nodes {
		n := path.Nodes[i]
		if c := s.caches[n]; c.Contains(obj) {
			c.Touch(obj)
			hit = i
			break
		}
		s.dcaches[n].RecordAccess(obj, now)
	}
	placed := s.placed[:0]
	for i := hit - 1; i >= 0; i-- {
		n := path.Nodes[i]
		dc := s.dcaches[n]
		if !dc.Contains(obj) {
			// First sighting: remember, do not admit.
			d := s.pool.Get(obj, size, freq.DefaultK)
			d.Window.Record(now)
			dc.Put(d, now)
			continue
		}
		if _, ok := s.caches[n].Insert(obj, size); ok {
			dc.Take(obj)
			placed = append(placed, i)
		}
	}
	s.placed = placed
	return Outcome{HitIndex: hit, Placed: placed}
}

// Cache exposes a node's store for tests.
func (s *LRU2H) Cache(n model.NodeID) *cache.LRU { return s.caches[n] }

// DCache exposes a node's descriptor cache for tests.
func (s *LRU2H) DCache(n model.NodeID) dcache.DCache { return s.dcaches[n] }
