package scheme

import (
	"math"
	"sort"
	"testing"

	"cascade/internal/model"
)

// testPath builds a 4-cache path with unit link costs:
// node 0 (client cache) -1- node 1 -1- node 2 -1- node 3 -1- origin.
func testPath() Path {
	return Path{
		Nodes:  []model.NodeID{0, 1, 2, 3},
		UpCost: []float64{1, 1, 1, 1},
	}
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPathCostTo(t *testing.T) {
	p := Path{Nodes: []model.NodeID{0, 1}, UpCost: []float64{0.5, 2}}
	if p.Len() != 2 || p.OriginIndex() != 2 {
		t.Fatal("path shape wrong")
	}
	for level, want := range []float64{0, 0.5, 2.5} {
		if got := p.CostTo(level); got != want {
			t.Fatalf("CostTo(%d) = %v, want %v", level, got, want)
		}
	}
}

func TestLRUSchemeInsertsEverywhere(t *testing.T) {
	s := NewLRU()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 0))
	p := testPath()
	out := s.Process(0, 42, 100, p)
	if out.HitIndex != p.OriginIndex() {
		t.Fatalf("first request hit at %d, want origin %d", out.HitIndex, p.OriginIndex())
	}
	if !equalInts(sorted(out.Placed), []int{0, 1, 2, 3}) {
		t.Fatalf("placed %v, want everywhere", out.Placed)
	}
	for _, n := range p.Nodes {
		if !s.Cache(n).Contains(42) {
			t.Fatalf("node %d missing object after LRU insert", n)
		}
	}
	// Second request hits at the client cache, no new placements.
	out = s.Process(1, 42, 100, p)
	if out.HitIndex != 0 || len(out.Placed) != 0 {
		t.Fatalf("second request: %+v", out)
	}
}

func TestLRUSchemeHitAtIntermediate(t *testing.T) {
	s := NewLRU()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 0))
	p := testPath()
	s.Process(0, 42, 100, p)
	// Evict object 42 from caches 0 and 1 by touching them with filler.
	s.Cache(0).Remove(42)
	s.Cache(1).Remove(42)
	out := s.Process(1, 42, 100, p)
	if out.HitIndex != 2 {
		t.Fatalf("hit at %d, want 2", out.HitIndex)
	}
	if !equalInts(sorted(out.Placed), []int{0, 1}) {
		t.Fatalf("placed %v, want [0 1] (below the hit only)", out.Placed)
	}
}

func TestModuloPlacementOffsets(t *testing.T) {
	s := NewModulo(2)
	if s.Name() != "MODULO(2)" || s.Radius() != 2 {
		t.Fatal("modulo identity wrong")
	}
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 0))
	p := testPath()
	out := s.Process(0, 7, 100, p)
	if !equalInts(sorted(out.Placed), []int{0, 2}) {
		t.Fatalf("radius-2 placed %v, want [0 2]", out.Placed)
	}
	if s.Cache(1).Contains(7) || s.Cache(3).Contains(7) {
		t.Fatal("radius-2 cached at non-multiple offsets")
	}
}

func TestModuloRadius4LeavesUpperLevelsUnused(t *testing.T) {
	// The §4.2 observation: on a depth-4 hierarchy path, radius 4 only
	// ever uses the leaf cache.
	s := NewModulo(4)
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 0))
	p := testPath()
	for i := 0; i < 5; i++ {
		s.Process(float64(i), model.ObjectID(i), 100, p)
	}
	for _, n := range []model.NodeID{1, 2, 3} {
		if s.Cache(n).Len() != 0 {
			t.Fatalf("radius-4 used cache %d", n)
		}
	}
	if s.Cache(0).Len() != 5 {
		t.Fatalf("leaf cache holds %d objects, want 5", s.Cache(0).Len())
	}
}

func TestModuloRadius1IsLRU(t *testing.T) {
	m := NewModulo(1)
	l := NewLRU()
	nodes := []model.NodeID{0, 1, 2, 3}
	m.Configure(Uniform(nodes, 300, 0))
	l.Configure(Uniform(nodes, 300, 0))
	p := testPath()
	for i := 0; i < 200; i++ {
		obj := model.ObjectID(i % 7)
		om := m.Process(float64(i), obj, 100, p)
		ol := l.Process(float64(i), obj, 100, p)
		if om.HitIndex != ol.HitIndex || !equalInts(sorted(om.Placed), sorted(ol.Placed)) {
			t.Fatalf("request %d: modulo(1) %+v != LRU %+v", i, om, ol)
		}
	}
}

func TestModuloRadiusClamped(t *testing.T) {
	if NewModulo(0).Radius() != 1 || NewModulo(-3).Radius() != 1 {
		t.Fatal("radius not clamped to 1")
	}
}

func TestLNCREvictsCheapestObject(t *testing.T) {
	s := NewLNCR()
	s.Configure(Uniform([]model.NodeID{0}, 250, 100))
	p := Path{Nodes: []model.NodeID{0}, UpCost: []float64{1}}
	// Objects 1 and 2 fill the cache; object 1 is requested repeatedly so
	// its frequency (and NCL) is higher.
	s.Process(0, 1, 100, p)
	s.Process(1, 2, 100, p)
	for _, now := range []float64{2, 3, 4} {
		out := s.Process(now, 1, 100, p)
		if out.HitIndex != 0 {
			t.Fatalf("object 1 should be cached (t=%v)", now)
		}
	}
	// Object 3 (100B) needs space: object 2 must be evicted, not 1.
	s.Process(5, 3, 100, p)
	if !s.Cache(0).Contains(1) || s.Cache(0).Contains(2) || !s.Cache(0).Contains(3) {
		t.Fatal("LNC-R evicted the wrong object")
	}
	// Evicted object's descriptor was demoted to the d-cache.
	if !s.DCache(0).Contains(2) {
		t.Fatal("evicted descriptor not demoted to d-cache")
	}
}

func TestLNCRMissPenaltyIsUpstreamLink(t *testing.T) {
	s := NewLNCR()
	s.Configure(Uniform([]model.NodeID{0, 1}, 1000, 10))
	p := Path{Nodes: []model.NodeID{0, 1}, UpCost: []float64{3, 5}}
	s.Process(0, 9, 100, p)
	if got := s.Cache(0).Get(9).MissPenalty(); got != 3 {
		t.Fatalf("node 0 miss penalty = %v, want immediate upstream link 3", got)
	}
	if got := s.Cache(1).Get(9).MissPenalty(); got != 5 {
		t.Fatalf("node 1 miss penalty = %v, want 5", got)
	}
}

func TestLNCROversizedObjectSkipped(t *testing.T) {
	s := NewLNCR()
	s.Configure(Uniform([]model.NodeID{0}, 50, 10))
	p := Path{Nodes: []model.NodeID{0}, UpCost: []float64{1}}
	out := s.Process(0, 1, 100, p)
	if len(out.Placed) != 0 || s.Cache(0).Len() != 0 {
		t.Fatal("oversized object was cached")
	}
	if !s.DCache(0).Contains(1) {
		t.Fatal("oversized object's descriptor not kept in d-cache")
	}
}

func TestCoordinatedFirstRequestPlacesSomewhere(t *testing.T) {
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 100))
	p := testPath()
	// First request: no descriptors anywhere → no candidates → no
	// placement, but descriptors get seeded on the response path.
	out := s.Process(0, 5, 100, p)
	if out.HitIndex != p.OriginIndex() || len(out.Placed) != 0 {
		t.Fatalf("first request outcome: %+v", out)
	}
	for _, n := range p.Nodes {
		d := s.DCache(n).Get(5)
		if d == nil {
			t.Fatalf("node %d missing seeded descriptor", n)
		}
	}
	// Descriptor miss penalties follow the response counter: node 3 is 1
	// link from the origin, node 0 is 4 links.
	for n, want := range map[model.NodeID]float64{3: 1, 2: 2, 1: 3, 0: 4} {
		if got := s.DCache(n).Get(5).MissPenalty(); got != want {
			t.Fatalf("node %d descriptor m = %v, want %v", n, got, want)
		}
	}
	// Second request: descriptors exist, caches are empty (zero cost
	// loss), so the object must now be cached somewhere.
	out = s.Process(1, 5, 100, p)
	if len(out.Placed) == 0 {
		t.Fatalf("second request placed nothing: %+v", out)
	}
	if out.PiggybackBytes <= 0 {
		t.Fatal("piggyback accounting missing")
	}
}

func TestCoordinatedEmptyCachesPlacesAtClient(t *testing.T) {
	// With empty caches (l=0) and equal f at all nodes (clamped), the DP
	// gain is maximized by caching at the client-most node alone:
	// f·m_n ≥ any split since deeper nodes have larger m.
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 100))
	p := testPath()
	s.Process(0, 5, 100, p)
	out := s.Process(1, 5, 100, p)
	if !equalInts(sorted(out.Placed), []int{0}) {
		t.Fatalf("placed %v, want [0] (client cache only)", out.Placed)
	}
	// Third request: hits at node 0.
	out = s.Process(2, 5, 100, p)
	if out.HitIndex != 0 {
		t.Fatalf("hit at %d, want 0", out.HitIndex)
	}
}

func TestCoordinatedCachedCopyMissPenaltyFromCounter(t *testing.T) {
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 100))
	p := testPath()
	s.Process(0, 5, 100, p)
	s.Process(1, 5, 100, p) // places at node 0
	d := s.Cache(0).Get(5)
	if d == nil {
		t.Fatal("object not cached at node 0")
	}
	if got := d.MissPenalty(); got != 4 {
		t.Fatalf("cached copy m = %v, want 4 (distance to origin)", got)
	}
}

func TestCoordinatedRespectsDCacheExclusion(t *testing.T) {
	// Nodes without a descriptor must never be chosen.
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 100))
	p := testPath()
	s.Process(0, 5, 100, p) // seeds descriptors everywhere
	// Remove the descriptor at node 0; placement must avoid node 0.
	s.DCache(0).Take(5)
	out := s.Process(1, 5, 100, p)
	for _, i := range out.Placed {
		if i == 0 {
			t.Fatalf("placed at node 0 despite missing descriptor: %+v", out)
		}
	}
	if len(out.Placed) == 0 {
		t.Fatal("no placement at all")
	}
}

func TestCoordinatedPlacementMatchesDPOnFreshCaches(t *testing.T) {
	// Empty caches, descriptors seeded → the chosen set must be the
	// client-most candidate (maximal miss penalty, zero loss).
	s := NewCoordinated()
	nodes := []model.NodeID{0, 1, 2}
	s.Configure(Uniform(nodes, 1000, 100))
	p := Path{Nodes: nodes, UpCost: []float64{2, 3, 4}}
	s.Process(0, 8, 50, p)
	out := s.Process(1, 8, 50, p)
	if !equalInts(sorted(out.Placed), []int{0}) {
		t.Fatalf("placed %v, want [0]", out.Placed)
	}
}

func TestCoordinatedDoesNotThrashHotCache(t *testing.T) {
	// A cache full of hot objects must not be overwritten by a cold one.
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0}, 200, 100))
	p := Path{Nodes: []model.NodeID{0}, UpCost: []float64{1}}
	// Make objects 1 and 2 hot (requested often).
	for i := 0; i < 20; i++ {
		s.Process(float64(i*10), 1, 100, p)
		s.Process(float64(i*10+1), 2, 100, p)
	}
	if !s.Cache(0).Contains(1) || !s.Cache(0).Contains(2) {
		t.Fatal("hot objects not cached")
	}
	// Two well-spaced requests for cold object 3 (descriptor seeded by
	// the first, placement decided on the second). The spacing keeps its
	// frequency estimate below the hot objects'.
	s.Process(300, 3, 100, p)
	out := s.Process(900, 3, 100, p)
	if len(out.Placed) != 0 {
		t.Fatalf("cold object displaced hot cache: %+v", out)
	}
	if !s.Cache(0).Contains(1) || !s.Cache(0).Contains(2) {
		t.Fatal("hot objects evicted by cold object")
	}
}

func TestCoordinatedHitAtIntermediateLimitsCandidates(t *testing.T) {
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 100))
	p := testPath()
	s.Process(0, 5, 100, p)
	s.Process(1, 5, 100, p) // placed at node 0
	// Force the copy to node 2 to observe a mid-path hit: remove from 0,
	// insert manually via a fresh protocol round.
	d := s.Cache(0).Remove(5)
	d.SetMissPenalty(2)
	s.Cache(2).Insert(d, 2)
	out := s.Process(3, 5, 100, p)
	if out.HitIndex != 2 {
		t.Fatalf("hit at %d, want 2", out.HitIndex)
	}
	for _, i := range out.Placed {
		if i >= 2 {
			t.Fatalf("placement %v at or above the serving node", out.Placed)
		}
	}
}

func TestCoordinatedOversizedObjectNeverPlaced(t *testing.T) {
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1}, 50, 10))
	p := Path{Nodes: []model.NodeID{0, 1}, UpCost: []float64{1, 1}}
	s.Process(0, 1, 100, p)
	out := s.Process(1, 1, 100, p)
	if len(out.Placed) != 0 {
		t.Fatalf("oversized object placed: %+v", out)
	}
}

func TestCoordinatedTheorem2LocalBenefit(t *testing.T) {
	// Every placement must be locally beneficial: f·m ≥ l. With zero
	// losses this is trivially true; exercise a loaded cache.
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 500, 100))
	p := testPath()
	for i := 0; i < 400; i++ {
		obj := model.ObjectID(i % 23)
		now := float64(i * 7)
		out := s.Process(now, obj, 100, p)
		for _, idx := range out.Placed {
			d := s.Cache(p.Nodes[idx]).Get(obj)
			if d == nil {
				t.Fatalf("placed object missing at node %d", idx)
			}
			// The copy exists; local benefit was checked by the
			// DP. Just assert the descriptor is sane.
			if d.MissPenalty() < 0 || math.IsNaN(d.MissPenalty()) {
				t.Fatalf("bad miss penalty %v", d.MissPenalty())
			}
		}
	}
}

func TestCoordinatedClampToggle(t *testing.T) {
	s := NewCoordinated()
	s.SetClampMonotone(false)
	s.Configure(Uniform([]model.NodeID{0, 1}, 1000, 10))
	p := Path{Nodes: []model.NodeID{0, 1}, UpCost: []float64{1, 1}}
	s.Process(0, 1, 100, p)
	out := s.Process(1, 1, 100, p)
	if len(out.Placed) == 0 {
		t.Fatal("unclamped coordinated scheme placed nothing on empty caches")
	}
}

func TestLFUSchemeKeepsFrequentObject(t *testing.T) {
	s := newLFU()
	s.Configure(Uniform([]model.NodeID{0}, 200, 100))
	p := Path{Nodes: []model.NodeID{0}, UpCost: []float64{1}}
	for i := 0; i < 10; i++ {
		s.Process(float64(i*100), 1, 100, p)
	}
	s.Process(1000, 2, 100, p)
	s.Process(1001, 3, 100, p) // must evict 2 (less frequent), not 1
	hit := s.Process(1002, 1, 100, p)
	if hit.HitIndex != 0 {
		t.Fatal("frequent object evicted by LFU")
	}
}

func TestGDSScheme(t *testing.T) {
	s := newGDS()
	s.Configure(Uniform([]model.NodeID{0, 1}, 200, 0))
	p := Path{Nodes: []model.NodeID{0, 1}, UpCost: []float64{2, 3}}
	out := s.Process(0, 1, 100, p)
	if out.HitIndex != 2 || !equalInts(sorted(out.Placed), []int{0, 1}) {
		t.Fatalf("first GDS request: %+v", out)
	}
	out = s.Process(1, 1, 100, p)
	if out.HitIndex != 0 {
		t.Fatalf("GDS hit at %d, want 0", out.HitIndex)
	}
}

func TestSchemeNames(t *testing.T) {
	for _, tc := range []struct {
		s    Scheme
		want string
	}{
		{NewLRU(), "LRU"},
		{NewModulo(4), "MODULO(4)"},
		{NewLNCR(), "LNC-R"},
		{NewCoordinated(), "COORD"},
		{newLFU(), "LFU"},
		{newGDS(), "GDS"},
	} {
		if tc.s.Name() != tc.want {
			t.Fatalf("name %q, want %q", tc.s.Name(), tc.want)
		}
	}
}

func TestLRU2HAdmissionControl(t *testing.T) {
	s := NewLRU2H()
	s.Configure(Uniform([]model.NodeID{0, 1}, 1000, 50))
	p := Path{Nodes: []model.NodeID{0, 1}, UpCost: []float64{1, 1}}
	// First request: seen nowhere → recorded, not admitted.
	out := s.Process(0, 7, 100, p)
	if len(out.Placed) != 0 {
		t.Fatalf("first sighting admitted: %+v", out)
	}
	if !s.DCache(0).Contains(7) || !s.DCache(1).Contains(7) {
		t.Fatal("first sighting not recorded")
	}
	// Second request: admitted everywhere below the origin.
	out = s.Process(1, 7, 100, p)
	if len(out.Placed) != 2 {
		t.Fatalf("second sighting not admitted: %+v", out)
	}
	if s.DCache(0).Contains(7) {
		t.Fatal("descriptor not promoted out of d-cache")
	}
	// Third request: hit at node 0.
	out = s.Process(2, 7, 100, p)
	if out.HitIndex != 0 {
		t.Fatalf("hit at %d, want 0", out.HitIndex)
	}
}

func TestLRU2HOneHitWondersFilteredOut(t *testing.T) {
	s := NewLRU2H()
	s.Configure(Uniform([]model.NodeID{0}, 300, 100))
	p := Path{Nodes: []model.NodeID{0}, UpCost: []float64{1}}
	// Establish hot objects 1..3 (two passes each).
	for pass := 0; pass < 2; pass++ {
		for id := model.ObjectID(1); id <= 3; id++ {
			s.Process(float64(pass*10+int(id)), id, 100, p)
		}
	}
	// A parade of one-hit wonders must not displace them.
	for i := 0; i < 50; i++ {
		s.Process(float64(100+i), model.ObjectID(1000+i), 100, p)
	}
	for id := model.ObjectID(1); id <= 3; id++ {
		if !s.Cache(0).Contains(id) {
			t.Fatalf("hot object %d displaced by one-hit wonders", id)
		}
	}
}

// TestTheorem2PruningIsLossless replays an identical workload through a
// pruning and a non-pruning coordinated scheme; Theorem 2 says outcomes
// must be identical. Note: with the monotone clamp enabled, pruning before
// clamping could diverge (the clamp can raise a pruned node's frequency),
// so the equivalence is asserted with clamping off — the regime where the
// theorem's hypothesis matches the DP input exactly.
func TestTheorem2PruningIsLossless(t *testing.T) {
	mk := func(prune bool) *Coordinated {
		s := NewCoordinated()
		s.SetClampMonotone(false)
		s.SetTheorem2Prune(prune)
		s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 700, 60))
		return s
	}
	a, b := mk(false), mk(true)
	p := testPath()
	for i := 0; i < 8000; i++ {
		obj := model.ObjectID(i % 17)
		size := int64(100 + (int(obj)*53)%300)
		now := float64(i) * 2.1
		oa := a.Process(now, obj, size, p)
		ob := b.Process(now, obj, size, p)
		if oa.HitIndex != ob.HitIndex || !equalInts(sorted(oa.Placed), sorted(ob.Placed)) {
			t.Fatalf("request %d: pruned %+v != unpruned %+v", i, ob, oa)
		}
	}
}

func TestPartialExtremes(t *testing.T) {
	nodes := []model.NodeID{0, 1, 2, 3}
	p := testPath()
	// Participation 0 ≡ LRU exactly.
	zero := NewPartial(0, 1)
	lru := NewLRU()
	zero.Configure(Uniform(nodes, 500, 50))
	lru.Configure(Uniform(nodes, 500, 50))
	for i := 0; i < 500; i++ {
		obj := model.ObjectID(i % 9)
		a := zero.Process(float64(i), obj, 100, p)
		b := lru.Process(float64(i), obj, 100, p)
		if a.HitIndex != b.HitIndex || !equalInts(sorted(a.Placed), sorted(b.Placed)) {
			t.Fatalf("request %d: partial(0) %+v != LRU %+v", i, a, b)
		}
	}
	// Participation 1: every node coordinated.
	one := NewPartial(1, 1)
	one.Configure(Uniform(nodes, 500, 50))
	for _, n := range nodes {
		if !one.IsCoordinated(n) {
			t.Fatalf("node %d not coordinated at participation 1", n)
		}
	}
	if one.Name() != "COORD@100%" || zero.Name() != "COORD@0%" {
		t.Fatalf("names: %q %q", one.Name(), zero.Name())
	}
	// Clamping.
	if NewPartial(-1, 0).Participation() != 0 || NewPartial(2, 0).Participation() != 1 {
		t.Fatal("participation not clamped")
	}
}

func TestPartialMixedBehaviour(t *testing.T) {
	// Find a seed that mixes node kinds on a 4-node path.
	var s *Partial
	nodes := []model.NodeID{0, 1, 2, 3}
	for seed := int64(0); seed < 50; seed++ {
		cand := NewPartial(0.5, seed)
		cand.Configure(Uniform(nodes, 2000, 50))
		coord := 0
		for _, n := range nodes {
			if cand.IsCoordinated(n) {
				coord++
			}
		}
		if coord >= 1 && coord <= 3 {
			s = cand
			break
		}
	}
	if s == nil {
		t.Fatal("no mixing seed found")
	}
	p := testPath()
	out := s.Process(0, 5, 100, p)
	// Legacy nodes below the origin must have inserted; coordinated nodes
	// must not (no descriptors yet on the first request).
	placedSet := map[int]bool{}
	for _, i := range out.Placed {
		placedSet[i] = true
	}
	for i, n := range p.Nodes {
		if s.IsCoordinated(n) && placedSet[i] {
			t.Fatalf("coordinated node %d placed on first sighting", n)
		}
		if !s.IsCoordinated(n) && !placedSet[i] {
			t.Fatalf("legacy node %d did not insert", n)
		}
	}
	// Under the invariant checker for a while (Configure resets both the
	// checker's model and the scheme's caches).
	chk := NewChecker(s)
	chk.Configure(Uniform(nodes, 2000, 50))
	for i := 0; i < 3000; i++ {
		obj := model.ObjectID(i % 23)
		chk.Process(float64(i)*1.7, obj, int64(100+(int(obj)*37)%300), p)
	}
}

func TestCoordinatedLazyMissPenaltyDiscovery(t *testing.T) {
	// §2.3: miss-penalty changes caused by placements elsewhere are
	// discovered lazily by later responses. Place a copy mid-path, then
	// verify a later response updates the d-cache penalties below it.
	s := NewCoordinated()
	s.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 100))
	p := testPath()
	s.Process(0, 5, 100, p) // seed descriptors; penalties 4,3,2,1
	// Manually plant a copy at node 2 (as if another client's path did).
	d := s.DCache(2).Take(5)
	d.SetMissPenalty(2)
	s.Cache(2).Insert(d, 1)
	// Next request hits at node 2; the response resets the counter
	// there, so nodes 1 and 0 learn their new, shorter penalties.
	out := s.Process(10, 5, 100, p)
	if out.HitIndex != 2 {
		t.Fatalf("hit at %d, want 2", out.HitIndex)
	}
	if got := s.DCache(1).Get(5); got != nil && got.MissPenalty() != 1 {
		t.Fatalf("node 1 penalty = %v, want 1 (distance to node 2)", got.MissPenalty())
	}
	// Node 0: either placed (then main-cache penalty counts from node 2
	// or nearer) or d-cache updated to ≤ 2.
	if dd := s.DCache(0).Get(5); dd != nil {
		if dd.MissPenalty() > 2 {
			t.Fatalf("node 0 penalty = %v, want ≤ 2", dd.MissPenalty())
		}
	} else if md := s.Cache(0).Get(5); md == nil {
		t.Fatal("node 0 lost all metadata")
	}
}
