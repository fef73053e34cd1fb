package scheme

import (
	"fmt"
	"math/rand"

	"cascade/internal/cache"
	"cascade/internal/engine"
	"cascade/internal/model"
)

// Partial models incremental deployment of coordinated caching: a seeded
// random fraction of the nodes participate in the §2.3 protocol (piggyback,
// DP placement, NCL replacement, d-caches) while the rest run legacy
// cache-everything LRU. Lookups traverse both kinds; the DP decides
// placement among participating candidates only, and every legacy node
// below the serving point inserts unconditionally, exactly as a real
// mixed fleet would behave.
//
// Participating nodes run the same engine.Sharded steps as the pure
// Coordinated scheme; legacy hops contribute a §2.4 "no descriptor" tag to
// the candidate vector (their link costs still feed deeper candidates'
// miss penalties) and apply their cache-everything policy on the way down.
//
// Participation 1 is not identical to the pure Coordinated scheme: legacy
// nodes do not exist then, but the placement decision still ignores the
// copies legacy nodes would have absorbed, so the two converge. At
// participation 0 it degenerates to LRU exactly.
type Partial struct {
	participation float64
	seed          int64

	coord  map[model.NodeID]*engine.Sharded // participating nodes
	legacy map[model.NodeID]*cache.LRU      // non-participating nodes

	// dec owns the DP tables and scratch so the per-call optimization
	// allocates nothing; the slices below are reused across Process calls.
	dec    engine.Decider
	cand   []engine.Candidate
	placed []int
	evict  []model.ObjectID
}

// NewPartial returns a mixed-deployment scheme where approximately the
// given fraction of nodes (chosen pseudo-randomly by seed) run coordinated
// caching.
func NewPartial(participation float64, seed int64) *Partial {
	if participation < 0 {
		participation = 0
	}
	if participation > 1 {
		participation = 1
	}
	return &Partial{participation: participation, seed: seed}
}

// Name implements Scheme.
func (s *Partial) Name() string {
	return fmt.Sprintf("COORD@%d%%", int(s.participation*100+0.5))
}

// Participation returns the configured coordinated fraction.
func (s *Partial) Participation() float64 { return s.participation }

// Configure implements Scheme.
func (s *Partial) Configure(budgets map[model.NodeID]NodeBudget) {
	s.coord = make(map[model.NodeID]*engine.Sharded)
	s.legacy = make(map[model.NodeID]*cache.LRU)
	r := rand.New(rand.NewSource(s.seed))
	// Iterate nodes in a deterministic order for reproducible draws.
	ids := make([]model.NodeID, 0, len(budgets))
	for n := range budgets {
		ids = append(ids, n)
	}
	sortNodeIDs(ids)
	for _, n := range ids {
		b := budgets[n]
		if r.Float64() < s.participation {
			s.coord[n] = engine.NewSharded(engine.ShardedConfig{
				Node:          n,
				CacheBytes:    b.CacheBytes,
				DCacheEntries: b.DCacheEntries,
				Pooled:        true,
			})
		} else {
			s.legacy[n] = cache.NewLRU(b.CacheBytes)
		}
	}
}

func sortNodeIDs(ids []model.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// IsCoordinated reports whether a node participates in the protocol.
func (s *Partial) IsCoordinated(n model.NodeID) bool {
	_, ok := s.coord[n]
	return ok
}

// Process implements Scheme.
func (s *Partial) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	// Upstream: look for a hit in either kind of cache; participating
	// nodes emit their candidate records, legacy nodes a "no descriptor"
	// tag (excluded from the DP, link cost still accumulated).
	hit := path.OriginIndex()
	s.cand = s.cand[:0]
	for i := range path.Nodes {
		n := path.Nodes[i]
		if st := s.coord[n]; st != nil {
			if st.Lookup(obj, now) {
				hit = i
				break
			}
			s.cand = append(s.cand, st.UpMiss(obj, size, i, path.UpCost[i], now))
			continue
		}
		if c := s.legacy[n]; c.Contains(obj) {
			c.Touch(obj)
			hit = i
			break
		}
		s.cand = append(s.cand, engine.Candidate{
			Hop: i, Node: n, Tag: engine.TagNoDescriptor, Link: path.UpCost[i],
		})
	}
	servNode := model.NoNode
	if hit < path.OriginIndex() {
		servNode = path.Nodes[hit]
	}

	// Decision: DP over participating candidates below the hit.
	chosen := s.dec.Decide(s.cand, engine.DecideOptions{ClampMonotone: true},
		engine.ServePoint{Hop: hit, Node: servNode})

	// Downstream: participating nodes follow the decision and maintain
	// descriptors; legacy nodes insert everything. chosen holds ascending
	// hop indices and the response walks hops descending — a tail cursor
	// replaces a chosen-set map.
	placed := s.placed[:0]
	last := len(chosen) - 1
	mp := 0.0
	for i := hit - 1; i >= 0; i-- {
		mp += path.UpCost[i]
		n := path.Nodes[i]
		st := s.coord[n]
		if st == nil {
			if _, ok := s.legacy[n].Insert(obj, size); ok {
				placed = append(placed, i)
				mp = 0
			}
			continue
		}
		place := last >= 0 && chosen[last] == i
		if place {
			last--
		}
		var res engine.DownOutcome
		res, s.evict = st.DownStep(obj, size, place, mp, 0, i, now, s.evict[:0])
		mp = res.MP
		if res.Placed {
			placed = append(placed, i)
		}
	}
	s.placed = placed
	return Outcome{HitIndex: hit, Placed: placed}
}
