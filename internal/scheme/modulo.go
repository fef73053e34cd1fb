package scheme

import (
	"fmt"

	"cascade/internal/cache"
	"cascade/internal/model"
)

// Modulo is the MODULO scheme of Bhattacharjee et al. [3]: on the delivery
// path the object is cached only at nodes a fixed number of hops (the
// cache radius) apart, counted from the client's first cache. Replacement
// is LRU and no d-cache is used. Radius 1 degenerates to the LRU scheme.
type Modulo struct {
	radius int
	caches map[model.NodeID]*cache.LRU
	placed []int // scratch reused across Process calls
}

// NewModulo returns a MODULO scheme with the given cache radius (≥ 1).
func NewModulo(radius int) *Modulo {
	if radius < 1 {
		radius = 1
	}
	return &Modulo{radius: radius}
}

// Radius returns the configured cache radius.
func (s *Modulo) Radius() int { return s.radius }

// Name implements Scheme.
func (s *Modulo) Name() string { return fmt.Sprintf("MODULO(%d)", s.radius) }

// Configure implements Scheme.
func (s *Modulo) Configure(budgets map[model.NodeID]NodeBudget) {
	s.caches = make(map[model.NodeID]*cache.LRU, len(budgets))
	for n, b := range budgets {
		s.caches[n] = cache.NewLRU(b.CacheBytes)
	}
}

// Process implements Scheme: lookup proceeds through every cache (a copy
// may sit anywhere the placement rule put it earlier), insertion only at
// hop offsets ≡ 0 (mod radius) from the client cache.
func (s *Modulo) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
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
		if i%s.radius != 0 {
			continue
		}
		if _, ok := s.caches[path.Nodes[i]].Insert(obj, size); ok {
			placed = append(placed, i)
		}
	}
	s.placed = placed
	return Outcome{HitIndex: hit, Placed: placed}
}

// Cache exposes a node's store for tests.
func (s *Modulo) Cache(n model.NodeID) *cache.LRU { return s.caches[n] }
