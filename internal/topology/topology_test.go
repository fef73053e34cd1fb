package topology

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cascade/internal/model"
)

func TestGraphBasics(t *testing.T) {
	g := newGraph(4)
	g.AddEdge(0, 1, 1.0)
	g.AddEdge(1, 2, 2.0)
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("adjacency wrong")
	}
	if g.EdgeDelay(1, 2) != 2.0 || g.EdgeDelay(0, 3) != -1 {
		t.Fatal("edge delay wrong")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.AddEdge(2, 3, 1.0)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestGraphSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	newGraph(2).AddEdge(1, 1, 1)
}

func TestShortestPathTreeSimple(t *testing.T) {
	// 0 —1— 1 —1— 2, plus direct 0—2 with delay 5: SPT from 2 must route
	// 0 via 1.
	g := newGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	parent, dist := g.ShortestPathTree(2)
	if parent[2] != model.NoNode || dist[2] != 0 {
		t.Fatalf("root: parent=%d dist=%v", parent[2], dist[2])
	}
	if parent[0] != 1 || parent[1] != 2 {
		t.Fatalf("parents = %v, want [1 2 -1]", parent)
	}
	if dist[0] != 2 || dist[1] != 1 {
		t.Fatalf("dists = %v", dist)
	}
}

func TestShortestPathTreeUnreachable(t *testing.T) {
	g := newGraph(3)
	g.AddEdge(0, 1, 1)
	parent, dist := g.ShortestPathTree(0)
	if parent[2] != model.NoNode || dist[2] >= 0 {
		t.Fatalf("unreachable node: parent=%d dist=%v", parent[2], dist[2])
	}
}

// TestDijkstraAgainstFloydWarshall cross-checks distances on random graphs.
func TestDijkstraAgainstFloydWarshall(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(20)
		g := newGraph(n)
		for i := 1; i < n; i++ {
			g.AddEdge(model.NodeID(i), model.NodeID(r.Intn(i)), 0.01+r.Float64())
		}
		for k := 0; k < n/2; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(model.NodeID(u), model.NodeID(v)) {
				g.AddEdge(model.NodeID(u), model.NodeID(v), 0.01+r.Float64())
			}
		}
		// Floyd–Warshall.
		const inf = math.MaxFloat64
		fw := make([][]float64, n)
		for i := range fw {
			fw[i] = make([]float64, n)
			for j := range fw[i] {
				if i != j {
					fw[i][j] = inf
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(model.NodeID(u)) {
				if e.Delay < fw[u][e.To] {
					fw[u][e.To] = e.Delay
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if fw[i][k]+fw[k][j] < fw[i][j] {
						fw[i][j] = fw[i][k] + fw[k][j]
					}
				}
			}
		}
		for root := 0; root < n; root++ {
			_, dist := g.ShortestPathTree(model.NodeID(root))
			for v := 0; v < n; v++ {
				if math.Abs(dist[v]-fw[root][v]) > 1e-9 {
					t.Fatalf("trial %d root %d node %d: dijkstra %v, fw %v",
						trial, root, v, dist[v], fw[root][v])
				}
			}
		}
	}
}

func TestGenerateTiersDefaults(t *testing.T) {
	e := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(1)))
	d := e.Describe()
	if d.TotalNodes != 100 || d.WANNodes != 50 || d.MANNodes != 50 {
		t.Fatalf("node counts: %+v", d)
	}
	// 49 WAN tree + 25 extra + 10×(4 tree + 1 uplink + 5 extra) = 174.
	if d.Links < 150 || d.Links > 180 {
		t.Fatalf("links = %d, want ≈173", d.Links)
	}
	if !e.G.Connected() {
		t.Fatal("generated topology not connected")
	}
	// Delay ratio ≈ 8:1 (Table 1) — allow generous tolerance.
	ratio := d.AvgWANDelay / d.AvgMANDelay
	if ratio < 5 || ratio > 12 {
		t.Fatalf("WAN:MAN delay ratio = %v, want ≈8", ratio)
	}
	if d.AvgRouteHops < 4 || d.AvgRouteHops > 20 {
		t.Fatalf("avg route hops = %v", d.AvgRouteHops)
	}
	if len(e.ClientAttachPoints()) != 50 || len(e.ServerAttachPoints()) != 50 {
		t.Fatal("attach points wrong")
	}
	for _, id := range e.ClientAttachPoints() {
		if e.Kinds[id] != manNode {
			t.Fatalf("attach point %d is not a MAN node", id)
		}
	}
}

func TestGenerateTiersDeterministic(t *testing.T) {
	a := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(9)))
	b := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(9)))
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for u := 0; u < a.G.NumNodes(); u++ {
		na, nb := a.G.Neighbors(model.NodeID(u)), b.G.Neighbors(model.NodeID(u))
		if len(na) != len(nb) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d adjacency differs at %d", u, i)
			}
		}
	}
}

func TestEnRouteRouteProperties(t *testing.T) {
	e := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(3)))
	mans := e.ClientAttachPoints()
	for _, c := range mans[:10] {
		for _, s := range mans[40:] {
			rt := e.Route(c, s)
			if rt.Caches[0] != c || rt.Caches[len(rt.Caches)-1] != s {
				t.Fatalf("route endpoints wrong: %v (c=%d s=%d)", rt.Caches, c, s)
			}
			if len(rt.UpCost) != len(rt.Caches) {
				t.Fatal("UpCost length mismatch")
			}
			if rt.UpCost[len(rt.UpCost)-1] != 0 || rt.OriginLink {
				t.Fatal("en-route origin link must be co-located (zero cost)")
			}
			for i, c := range rt.UpCost[:len(rt.UpCost)-1] {
				if c <= 0 {
					t.Fatalf("non-positive link cost at %d: %v", i, rt.UpCost)
				}
			}
			if rt.Hops() != len(rt.Caches)-1 {
				t.Fatalf("hops = %d, want %d", rt.Hops(), len(rt.Caches)-1)
			}
			// Route cost equals shortest-path distance.
			_, dist := e.G.ShortestPathTree(s)
			if math.Abs(rt.CostTo(len(rt.Caches))-dist[c]) > 1e-9 {
				t.Fatalf("route cost %v != shortest distance %v", rt.CostTo(len(rt.Caches)), dist[c])
			}
		}
	}
}

func TestEnRouteRouteSameNode(t *testing.T) {
	e := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(3)))
	c := e.ClientAttachPoints()[0]
	rt := e.Route(c, c)
	if len(rt.Caches) != 1 || rt.Caches[0] != c || rt.UpCost[0] != 0 || rt.Hops() != 0 {
		t.Fatalf("degenerate route wrong: %+v", rt)
	}
}

func TestEnRouteRouteMemoized(t *testing.T) {
	e := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(3)))
	m := e.ClientAttachPoints()
	r1 := e.Route(m[0], m[9])
	r2 := e.Route(m[0], m[9])
	if &r1.Caches[0] != &r2.Caches[0] {
		t.Fatal("route not memoized")
	}
}

func TestGenerateTreeDefaults(t *testing.T) {
	h := GenerateTree(TreeConfig{})
	if h.NumCaches() != 40 { // (3^4-1)/2
		t.Fatalf("nodes = %d, want 40", h.NumCaches())
	}
	if len(h.ClientAttachPoints()) != 27 {
		t.Fatalf("leaves = %d, want 27", len(h.ClientAttachPoints()))
	}
	if h.Level(0) != 3 || h.Parent(0) != model.NoNode {
		t.Fatal("root wrong")
	}
	if got := h.ServerAttachPoints(); len(got) != 1 || got[0] != model.NoNode {
		t.Fatal("server attach points wrong")
	}
	// Every non-root node's parent is one level higher.
	for id := 1; id < h.NumCaches(); id++ {
		p := h.Parent(model.NodeID(id))
		if h.Level(p) != h.Level(model.NodeID(id))+1 {
			t.Fatalf("node %d level %d has parent %d level %d",
				id, h.Level(model.NodeID(id)), p, h.Level(p))
		}
	}
}

func TestTreeRouteDelays(t *testing.T) {
	h := GenerateTree(TreeConfig{Depth: 4, Fanout: 3, BaseDelay: 0.008, Growth: 5})
	leaf := h.ClientAttachPoints()[0]
	rt := h.Route(leaf, model.NoNode)
	if len(rt.Caches) != 4 {
		t.Fatalf("route length = %d, want 4", len(rt.Caches))
	}
	want := []float64{0.008, 0.04, 0.2, 1.0} // g^i·d for i=0..3
	for i, c := range rt.UpCost {
		if math.Abs(c-want[i]) > 1e-12 {
			t.Fatalf("UpCost[%d] = %v, want %v", i, c, want[i])
		}
	}
	if !rt.OriginLink || rt.Hops() != 4 {
		t.Fatalf("hierarchy origin link must be real; hops=%d", rt.Hops())
	}
	if rt.Caches[len(rt.Caches)-1] != 0 {
		t.Fatal("route must end at the root")
	}
	// Total cost to origin = d(1+g+g²+g³).
	wantTotal := 0.008 * (1 + 5 + 25 + 125)
	if math.Abs(rt.CostTo(4)-wantTotal) > 1e-12 {
		t.Fatalf("cost to origin = %v, want %v", rt.CostTo(4), wantTotal)
	}
}

func TestTreeFanout1(t *testing.T) {
	h := GenerateTree(TreeConfig{Depth: 3, Fanout: 1, BaseDelay: 1, Growth: 2})
	if h.NumCaches() != 3 || len(h.ClientAttachPoints()) != 1 {
		t.Fatalf("chain tree wrong: %d nodes, %d leaves", h.NumCaches(), len(h.ClientAttachPoints()))
	}
	rt := h.Route(h.ClientAttachPoints()[0], model.NoNode)
	if len(rt.Caches) != 3 || rt.CostTo(3) != 1+2+4 {
		t.Fatalf("chain route wrong: %+v", rt)
	}
}

func TestTreeAllLeavesSameDepth(t *testing.T) {
	for _, cfg := range []TreeConfig{{Depth: 2, Fanout: 5}, {Depth: 5, Fanout: 2}, {Depth: 3, Fanout: 4}} {
		h := GenerateTree(cfg)
		wantLeaves := pow(cfg.Fanout, cfg.Depth-1)
		if len(h.ClientAttachPoints()) != wantLeaves {
			t.Fatalf("cfg %+v: leaves = %d, want %d", cfg, len(h.ClientAttachPoints()), wantLeaves)
		}
		for _, leaf := range h.ClientAttachPoints() {
			if h.Level(leaf) != 0 {
				t.Fatalf("leaf %d at level %d", leaf, h.Level(leaf))
			}
			if got := len(h.Route(leaf, model.NoNode).Caches); got != cfg.Depth {
				t.Fatalf("route depth = %d, want %d", got, cfg.Depth)
			}
		}
	}
}

func TestRouteCostTo(t *testing.T) {
	rt := Route{
		Caches: []model.NodeID{1, 2, 3},
		UpCost: []float64{1, 2, 4},
	}
	for level, want := range []float64{0, 1, 3, 7} {
		if got := rt.CostTo(level); got != want {
			t.Fatalf("CostTo(%d) = %v, want %v", level, got, want)
		}
	}
}

func BenchmarkGenerateTiers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkShortestPathTree(b *testing.B) {
	e := GenerateTiers(TiersConfig{}, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.G.ShortestPathTree(model.NodeID(i % e.G.NumNodes()))
	}
}

func TestWriteDot(t *testing.T) {
	e := GenerateTiers(TiersConfig{WANNodes: 4, MANs: 1, NodesPerMAN: 2, WANExtraLinks: -1, MANExtraLinks: -1},
		rand.New(rand.NewSource(1)))
	var buf strings.Builder
	if err := e.WriteDot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph tiers {", "doublecircle", "n0", "--", "ms", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
	// Each undirected link appears exactly once.
	if got, want := strings.Count(out, "--"), e.G.NumEdges(); got != want {
		t.Fatalf("dot has %d links, graph has %d", got, want)
	}
}

func TestTreeDescribe(t *testing.T) {
	h := GenerateTree(TreeConfig{Depth: 4, Fanout: 3, BaseDelay: 0.008, Growth: 5})
	d := h.Describe()
	if d.Depth != 4 || d.Fanout != 3 || d.TotalNodes != 40 || d.Leaves != 27 {
		t.Fatalf("description: %+v", d)
	}
	if len(d.LevelDelays) != 4 || d.LevelDelays[0] != 0.008 || d.LevelDelays[3] != 1.0 {
		t.Fatalf("level delays: %v", d.LevelDelays)
	}
	if math.Abs(d.PathCost-1.248) > 1e-12 {
		t.Fatalf("path cost = %v", d.PathCost)
	}
}

func TestRouteCompact(t *testing.T) {
	r := Route{
		Caches:     []model.NodeID{0, 1, 2},
		UpCost:     []float64{1, 2, 4},
		OriginLink: true,
	}
	aliveExcept := func(dead ...model.NodeID) func(model.NodeID) bool {
		return func(id model.NodeID) bool {
			for _, d := range dead {
				if id == d {
					return false
				}
			}
			return true
		}
	}

	// Nothing dead: identical slices back, no allocation.
	c, cut := r.Compact(aliveExcept())
	if &c.Caches[0] != &r.Caches[0] || cut.Skipped != 0 || cut.Lead != 0 {
		t.Fatalf("identity compact copied: %+v %+v", c, cut)
	}

	// Middle hop dead: its uplink folds into the hop below.
	c, cut = r.Compact(aliveExcept(1))
	if len(c.Caches) != 2 || c.Caches[0] != 0 || c.Caches[1] != 2 {
		t.Fatalf("caches = %v", c.Caches)
	}
	if c.UpCost[0] != 3 || c.UpCost[1] != 4 || cut.Lead != 0 || cut.Skipped != 1 {
		t.Fatalf("costs = %v cut = %+v", c.UpCost, cut)
	}

	// Top hop dead: its uplink (to the origin) folds downward.
	c, cut = r.Compact(aliveExcept(2))
	if len(c.Caches) != 2 || c.UpCost[1] != 6 || cut.Lead != 0 {
		t.Fatalf("top-dead: %v %+v", c.UpCost, cut)
	}

	// Bottom hop dead: its uplink becomes lead cost.
	c, cut = r.Compact(aliveExcept(0))
	if len(c.Caches) != 2 || c.Caches[0] != 1 || cut.Lead != 1 || c.UpCost[0] != 2 {
		t.Fatalf("bottom-dead: %+v %+v", c, cut)
	}

	// Everything dead: empty route, full cost as lead.
	c, cut = r.Compact(aliveExcept(0, 1, 2))
	if len(c.Caches) != 0 || cut.Lead != 7 || cut.Skipped != 3 {
		t.Fatalf("all-dead: %+v %+v", c, cut)
	}

	// Total route cost is invariant under compaction.
	c, cut = r.Compact(aliveExcept(0, 2))
	total := cut.Lead
	for _, v := range c.UpCost {
		total += v
	}
	if total != 7 {
		t.Fatalf("cost not preserved: %v", total)
	}
}
