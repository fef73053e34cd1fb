package scheme

import (
	"cascade/internal/cache"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/freq"
	"cascade/internal/model"
)

// LNCR is the LNC-R scheme of Scheuermann, Shim & Vingralek [16]: a
// cost-based replacement policy applied independently at every cache. The
// requested object is inserted at all nodes on the delivery path
// ("caching everywhere"), evicting the objects with the least normalized
// cost loss f(O)·m(O)/s(O). Per the paper's setup (§3.3), the miss penalty
// of an object at a cache is the delay of the immediate upstream link, and
// descriptors of objects outside the main cache live in a d-cache to
// improve frequency estimation.
type LNCR struct {
	caches  map[model.NodeID]*cache.HeapStore
	dcaches map[model.NodeID]dcache.DCache
	dfac    dcache.Factory
	placed  []int           // scratch reused across Process calls
	pool    engine.DescPool // recycles descriptors evicted by the d-caches
}

// NewLNCR returns an unconfigured LNC-R scheme.
func NewLNCR() *LNCR { return &LNCR{dfac: dcache.NewFactory} }

// SetDCacheFactory selects the d-cache implementation (heap LFU by
// default; dcache.NewLRUStacksFactory for the paper's O(1) variant). Call
// before Configure.
func (s *LNCR) SetDCacheFactory(f dcache.Factory) { s.dfac = f }

// Name implements Scheme.
func (s *LNCR) Name() string { return "LNC-R" }

// Configure implements Scheme.
func (s *LNCR) Configure(budgets map[model.NodeID]NodeBudget) {
	s.caches = make(map[model.NodeID]*cache.HeapStore, len(budgets))
	s.dcaches = make(map[model.NodeID]dcache.DCache, len(budgets))
	for n, b := range budgets {
		s.caches[n] = cache.NewCostAware(b.CacheBytes)
		s.dcaches[n] = s.dfac(b.DCacheEntries)
		s.pool.Attach(s.dcaches[n])
	}
}

// Process implements Scheme.
func (s *LNCR) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	// Upstream: look for a hit; record the access in each traversed
	// node's meta information on the way.
	hit := path.OriginIndex()
	for i := range path.Nodes {
		n := path.Nodes[i]
		if main := s.caches[n]; main.Contains(obj) {
			main.Touch(obj, now)
			hit = i
			break
		}
		s.dcaches[n].RecordAccess(obj, now)
	}

	// Downstream: insert everywhere below the hit with the descriptor's
	// miss penalty fixed to the immediate upstream link delay.
	placed := s.placed[:0]
	for i := hit - 1; i >= 0; i-- {
		n := path.Nodes[i]
		desc := s.dcaches[n].Take(obj)
		if desc == nil {
			desc = s.pool.Get(obj, size, freq.DefaultK)
			desc.Window.Record(now)
		}
		desc.SetMissPenalty(path.UpCost[i])
		evicted, ok := s.caches[n].Insert(desc, now)
		if !ok {
			// Object cannot fit (larger than the cache): keep the
			// descriptor in the d-cache instead.
			s.dcaches[n].Put(desc, now)
			continue
		}
		placed = append(placed, i)
		for _, v := range evicted {
			s.dcaches[n].Put(v, now)
		}
	}
	s.placed = placed
	return Outcome{HitIndex: hit, Placed: placed}
}

// Cache exposes a node's main store for tests.
func (s *LNCR) Cache(n model.NodeID) *cache.HeapStore { return s.caches[n] }

// DCache exposes a node's descriptor cache for tests.
func (s *LNCR) DCache(n model.NodeID) dcache.DCache { return s.dcaches[n] }
