package scheme

import (
	"cascade/internal/cache"
	"cascade/internal/dcache"
	"cascade/internal/engine"
	"cascade/internal/freq"
	"cascade/internal/model"
)

// lfu is an extra baseline beyond the paper's comparators: caching
// everywhere with least-frequently-used replacement driven by the same
// sliding-window estimator the cost-aware schemes use. It isolates the
// value of frequency information alone (no cost, no placement decisions).
type lfu struct {
	caches  map[model.NodeID]*cache.HeapStore
	dcaches map[model.NodeID]dcache.DCache
	placed  []int           // scratch reused across Process calls
	pool    engine.DescPool // recycles descriptors evicted by the d-caches
}

// newLFU returns an unconfigured LFU scheme.
func newLFU() *lfu { return &lfu{} }

// Name implements Scheme.
func (s *lfu) Name() string { return "LFU" }

// Configure implements Scheme.
func (s *lfu) Configure(budgets map[model.NodeID]NodeBudget) {
	s.caches = make(map[model.NodeID]*cache.HeapStore, len(budgets))
	s.dcaches = make(map[model.NodeID]dcache.DCache, len(budgets))
	for n, b := range budgets {
		s.caches[n] = cache.NewLFU(b.CacheBytes)
		s.dcaches[n] = dcache.New(b.DCacheEntries)
		s.pool.Attach(s.dcaches[n])
	}
}

// Process implements Scheme.
func (s *lfu) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
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
	placed := s.placed[:0]
	for i := hit - 1; i >= 0; i-- {
		n := path.Nodes[i]
		desc := s.dcaches[n].Take(obj)
		if desc == nil {
			desc = s.pool.Get(obj, size, freq.DefaultK)
			desc.Window.Record(now)
		}
		evicted, ok := s.caches[n].Insert(desc, now)
		if !ok {
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

// gds is an extra baseline: caching everywhere with GreedyDual-Size
// replacement, the retrieval cost of an object taken as the delay of the
// immediate upstream link (the cost LNC-R uses too).
type gds struct {
	caches map[model.NodeID]*cache.GreedyDualSize
	placed []int // scratch reused across Process calls
}

// newGDS returns an unconfigured GreedyDual-Size scheme.
func newGDS() *gds { return &gds{} }

// Name implements Scheme.
func (s *gds) Name() string { return "GDS" }

// Configure implements Scheme.
func (s *gds) Configure(budgets map[model.NodeID]NodeBudget) {
	s.caches = make(map[model.NodeID]*cache.GreedyDualSize, len(budgets))
	for n, b := range budgets {
		s.caches[n] = cache.NewGreedyDualSize(b.CacheBytes)
	}
}

// Process implements Scheme.
func (s *gds) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
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
		if _, ok := s.caches[path.Nodes[i]].Insert(obj, size, path.UpCost[i]); ok {
			placed = append(placed, i)
		}
	}
	s.placed = placed
	return Outcome{HitIndex: hit, Placed: placed}
}
