package topology

import (
	"math/rand"
	"testing"

	"cascade/internal/model"
)

// lineEnRoute builds a hand-wired EnRoute over a path graph
// 0–1–2–3–4 with unit delays plus a 0–4 detour of the given delay.
func lineEnRoute(detour float64) *EnRoute {
	g := newGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(model.NodeID(i), model.NodeID(i+1), 1)
	}
	g.AddEdge(0, 4, detour)
	return &EnRoute{
		G:        g,
		Kinds:    make([]NodeKind, 5),
		manNodes: []model.NodeID{0, 4},
		trees:    make(map[model.NodeID]treeEntry),
		routes:   make(map[[2]model.NodeID]routeEntry),
		disabled: make(map[model.NodeID]bool),
	}
}

func TestShortestPathTreeExcludingTransit(t *testing.T) {
	e := lineEnRoute(10)
	parent, dist := e.G.ShortestPathTreeExcluding(4, func(n model.NodeID) bool { return n == 2 })
	// With node 2 excluded from transit, 0 must use the 0–4 detour.
	if parent[0] != 4 || dist[0] != 10 {
		t.Fatalf("parent[0]=%v dist=%v, want detour via 4 at 10", parent[0], dist[0])
	}
	// The excluded node itself still gets a parent (it can be an endpoint).
	if parent[2] == model.NoNode || dist[2] < 0 {
		t.Fatal("excluded node should remain reachable as an endpoint")
	}
	// Node 1 must not route through 2: its best allowed path is via 0.
	if parent[1] != 0 {
		t.Fatalf("parent[1]=%v, want 0 (no transit through 2)", parent[1])
	}
}

func TestSetNodeEnabledReroutesAndRecovers(t *testing.T) {
	e := lineEnRoute(10)
	before := e.Route(0, 4)
	wantLine := []model.NodeID{0, 1, 2, 3, 4}
	for i, c := range before.Caches {
		if c != wantLine[i] {
			t.Fatalf("baseline route = %v, want %v", before.Caches, wantLine)
		}
	}

	e.SetNodeEnabled(2, false)
	during := e.Route(0, 4)
	if len(during.Caches) != 2 || during.Caches[0] != 0 || during.Caches[1] != 4 {
		t.Fatalf("route with 2 disabled = %v, want detour [0 4]", during.Caches)
	}
	if during.UpCost[0] != 10 {
		t.Fatalf("detour up-cost = %v, want 10", during.UpCost[0])
	}

	e.SetNodeEnabled(2, true)
	after := e.Route(0, 4)
	for i, c := range after.Caches {
		if c != wantLine[i] {
			t.Fatalf("route after re-enable = %v, want %v", after.Caches, wantLine)
		}
	}
}

func TestSetNodeEnabledKeepsUnaffectedEntries(t *testing.T) {
	e := lineEnRoute(10)
	unaffected := e.Route(0, 1) // never touches node 3
	affected := e.Route(0, 4)   // traverses node 3

	e.SetNodeEnabled(3, false)

	// The untouched entry must keep its identical memoized slice.
	again := e.Route(0, 1)
	if &again.Caches[0] != &unaffected.Caches[0] {
		t.Fatal("entry not traversing the disabled node was invalidated")
	}
	// The affected entry must have been recomputed around node 3.
	re := e.Route(0, 4)
	if &re.Caches[0] == &affected.Caches[0] {
		t.Fatal("entry traversing the disabled node kept its stale route")
	}
	for _, c := range re.Caches {
		if c == 3 {
			t.Fatalf("recomputed route %v still traverses disabled node 3", re.Caches)
		}
	}
}

// TestDisabledCutVertexStaysAsRelay: disabling a node that is a cut vertex
// (no alternative path exists) must not strand the clients behind it — the
// route keeps traversing the node, which the protocol layer then skips per
// request (the relay semantics every incarnation implements for draining
// hops).
func TestDisabledCutVertexStaysAsRelay(t *testing.T) {
	g := newGraph(5) // pure chain 0–1–2–3–4: every interior node is a cut vertex
	for i := 0; i < 4; i++ {
		g.AddEdge(model.NodeID(i), model.NodeID(i+1), 1)
	}
	e := &EnRoute{
		G:        g,
		Kinds:    make([]NodeKind, 5),
		manNodes: []model.NodeID{0, 4},
		trees:    make(map[model.NodeID]treeEntry),
		routes:   make(map[[2]model.NodeID]routeEntry),
		disabled: make(map[model.NodeID]bool),
	}
	wantLine := []model.NodeID{0, 1, 2, 3, 4}

	e.SetNodeEnabled(2, false)
	during := e.Route(0, 4)
	if len(during.Caches) != len(wantLine) {
		t.Fatalf("route with cut vertex 2 disabled = %v, want relay path %v", during.Caches, wantLine)
	}
	for i, c := range during.Caches {
		if c != wantLine[i] {
			t.Fatalf("route with cut vertex 2 disabled = %v, want relay path %v", during.Caches, wantLine)
		}
	}
	// A client that is itself mid-drain keeps routing too.
	if rt := e.Route(2, 4); len(rt.Caches) != 3 {
		t.Fatalf("route from the disabled node = %v, want [2 3 4]", rt.Caches)
	}

	// Re-enabling refreshes the fallback entry (same path here, but it must
	// be recomputed as exclusion-free, not kept as a stale excl entry).
	e.SetNodeEnabled(2, true)
	after := e.Route(0, 4)
	for i, c := range after.Caches {
		if c != wantLine[i] {
			t.Fatalf("route after re-enable = %v, want %v", after.Caches, wantLine)
		}
	}
}

func TestSetNodeEnabledIsIdempotent(t *testing.T) {
	e := lineEnRoute(10)
	e.Route(0, 4)
	e.SetNodeEnabled(2, false)
	v := e.enableVer
	e.SetNodeEnabled(2, false) // no-op
	e.SetNodeEnabled(2, true)
	e.SetNodeEnabled(2, true) // no-op
	if e.enableVer != v+1 {
		t.Fatalf("enableVer = %d, want %d (one bump per actual re-enable)", e.enableVer, v+1)
	}
	if !e.NodeEnabled(2) {
		t.Fatal("node should be enabled again")
	}
}

func TestEnRouteParent(t *testing.T) {
	g := newGraph(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 2, 2)
	g.AddEdge(0, 3, 2)
	e := &EnRoute{
		G:        g,
		Kinds:    make([]NodeKind, 4),
		manNodes: []model.NodeID{0},
		trees:    make(map[model.NodeID]treeEntry),
		routes:   make(map[[2]model.NodeID]routeEntry),
		disabled: make(map[model.NodeID]bool),
	}
	if p := e.Parent(0); p != 2 {
		t.Fatalf("Parent(0) = %v, want 2 (min delay, lowest ID tie-break)", p)
	}
	e.SetNodeEnabled(2, false)
	if p := e.Parent(0); p != 3 {
		t.Fatalf("Parent(0) with 2 disabled = %v, want 3", p)
	}
	e.SetNodeEnabled(3, false)
	if p := e.Parent(0); p != 1 {
		t.Fatalf("Parent(0) with 2,3 disabled = %v, want 1", p)
	}
	e.SetNodeEnabled(1, false)
	if p := e.Parent(0); p != model.NoNode {
		t.Fatalf("Parent(0) with all neighbors disabled = %v, want NoNode", p)
	}
}

func TestValidateAcceptsGenerated(t *testing.T) {
	e := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(1)))
	if err := e.Validate(); err != nil {
		t.Fatalf("default topology should validate: %v", err)
	}
}

func TestValidateRejectsDegenerate(t *testing.T) {
	single := &EnRoute{
		G:        newGraph(1),
		Kinds:    make([]NodeKind, 1),
		manNodes: []model.NodeID{0},
	}
	if err := single.Validate(); err == nil {
		t.Fatal("single-node topology must be rejected")
	}

	g := newGraph(4)
	g.AddEdge(0, 1, 1) // nodes 2, 3 isolated
	disconnected := &EnRoute{
		G:        g,
		Kinds:    make([]NodeKind, 4),
		manNodes: []model.NodeID{0},
	}
	if err := disconnected.Validate(); err == nil {
		t.Fatal("disconnected topology must be rejected")
	}

	g2 := newGraph(2)
	g2.AddEdge(0, 1, 1)
	noAttach := &EnRoute{G: g2, Kinds: make([]NodeKind, 2)}
	if err := noAttach.Validate(); err == nil {
		t.Fatal("topology without attach points must be rejected")
	}
}
