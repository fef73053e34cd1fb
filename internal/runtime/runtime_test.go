package runtime

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cascade/internal/dcache"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// logicalClock injects deterministic time into a cluster.
type logicalClock struct {
	mu  sync.Mutex
	now float64
}

func (c *logicalClock) Set(t float64) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

func (c *logicalClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func newTestCluster(t *testing.T, net topology.Network, capacity int64, dEntries int, clk *logicalClock) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Network:       net,
		CacheBytes:    capacity,
		DCacheEntries: dEntries,
		Clock:         clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewCluster(Config{Network: topology.GenerateTree(topology.TreeConfig{}), CacheBytes: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestClusterBasicProtocol(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 10000, 100, clk)
	leaf := h.ClientAttachPoints()[0]
	ctx := context.Background()

	// First request: origin serves (cost 1+2+4=7 for an unscaled
	// object), nothing placed (no descriptors yet).
	clk.Set(0)
	r, err := c.Get(ctx, leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedBy != model.NoNode || r.Cost != 7 || r.Hops != 3 || len(r.Placed) != 0 {
		t.Fatalf("first request: %+v", r)
	}

	// Second request: descriptors exist, caches empty → placed at the
	// leaf (max miss penalty, zero loss), still origin-served.
	clk.Set(10)
	r, err = c.Get(ctx, leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedBy != model.NoNode || len(r.Placed) != 1 || r.Placed[0] != leaf {
		t.Fatalf("second request: %+v", r)
	}

	// Third request: leaf hit, zero cost, zero hops.
	clk.Set(20)
	r, err = c.Get(ctx, leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedBy != leaf || r.Cost != 0 || r.Hops != 0 || len(r.Placed) != 0 {
		t.Fatalf("third request: %+v", r)
	}
}

func TestClusterSiblingLeafMiss(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 10000, 100, clk)
	leaves := h.ClientAttachPoints()
	ctx := context.Background()

	// Warm object 1 into leaf 0.
	for i, ts := range []float64{0, 10, 20} {
		clk.Set(ts)
		if _, err := c.Get(ctx, leaves[0], model.NoNode, 1, 100); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
	}
	// A different leaf must not see leaf 0's copy (it is not on the
	// sibling's path unless they share ancestors holding it).
	clk.Set(30)
	r, err := c.Get(ctx, leaves[len(leaves)-1], model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedBy == leaves[0] {
		t.Fatal("request served by an off-path cache")
	}
}

func TestClusterGetAfterCloseFails(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{Network: h, CacheBytes: 1000, DCacheEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, err := c.Get(context.Background(), h.ClientAttachPoints()[0], model.NoNode, 1, 10); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}

// TestClusterMatchesSimulationScheme is the cross-validation: a serial
// request sequence replayed through the in-process cluster must
// produce exactly the same hits and placements as the simulation-oriented
// scheme.Coordinated implementation.
func TestClusterMatchesSimulationScheme(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{
		Objects:  400,
		Servers:  10,
		Clients:  40,
		Requests: 12000,
		Duration: 7200,
		Seed:     23,
	})
	cat := gen.Catalog()
	avg := cat.AvgSize()

	h := topology.GenerateTree(topology.TreeConfig{Depth: 4, Fanout: 3, BaseDelay: 0.008, Growth: 5})
	capacity := int64(0.01 * float64(cat.TotalBytes))
	dEntries := int(3 * float64(capacity) / avg)

	clk := &logicalClock{}
	cluster := newTestCluster(t, h, capacity, dEntries, clk)
	// Match the cluster's per-object cost scaling.
	cluster.cfg.AvgObjectSize = avg

	sch := scheme.NewCoordinated()
	nodes := make([]model.NodeID, h.NumCaches())
	for i := range nodes {
		nodes[i] = model.NodeID(i)
	}
	sch.Configure(scheme.Uniform(nodes, capacity, dEntries))

	leaves := h.ClientAttachPoints()
	attach := func(cl model.ClientID) model.NodeID { return leaves[int(cl)%len(leaves)] }

	ctx := context.Background()
	costBuf := make([]float64, 0, 8)
	for i := 0; ; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		leaf := attach(req.Client)
		route := h.Route(leaf, model.NoNode)

		clk.Set(req.Time)
		got, err := cluster.Get(ctx, leaf, model.NoNode, req.Object, req.Size)
		if err != nil {
			t.Fatal(err)
		}

		scale := float64(req.Size) / avg
		costBuf = costBuf[:0]
		for _, c := range route.UpCost {
			costBuf = append(costBuf, c*scale)
		}
		want := sch.Process(req.Time, req.Object, req.Size, scheme.Path{Nodes: route.Caches, UpCost: costBuf})

		wantServed := model.NoNode
		if want.HitIndex < len(route.Caches) {
			wantServed = route.Caches[want.HitIndex]
		}
		if got.ServedBy != wantServed {
			t.Fatalf("request %d (obj %d): cluster served by %d, scheme by %d",
				i, req.Object, got.ServedBy, wantServed)
		}
		wantPlaced := make([]model.NodeID, 0, len(want.Placed))
		for _, idx := range want.Placed {
			wantPlaced = append(wantPlaced, route.Caches[idx])
		}
		gotPlaced := append([]model.NodeID(nil), got.Placed...)
		sortNodes(gotPlaced)
		sortNodes(wantPlaced)
		if len(gotPlaced) != len(wantPlaced) {
			t.Fatalf("request %d: cluster placed %v, scheme placed %v", i, gotPlaced, wantPlaced)
		}
		for j := range gotPlaced {
			if gotPlaced[j] != wantPlaced[j] {
				t.Fatalf("request %d: cluster placed %v, scheme placed %v", i, gotPlaced, wantPlaced)
			}
		}
	}
}

func sortNodes(ns []model.NodeID) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
}

// TestClusterConcurrentGets exercises the data plane under parallel load
// (run with -race); results must all be well-formed and the cluster must
// quiesce cleanly.
func TestClusterConcurrentGets(t *testing.T) {
	net := topology.GenerateTiers(topology.TiersConfig{}, rand.New(rand.NewSource(4)))
	c, err := NewCluster(Config{
		Network:       net,
		CacheBytes:    1 << 20,
		DCacheEntries: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mans := net.ClientAttachPoints()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				client := mans[r.Intn(len(mans))]
				server := mans[r.Intn(len(mans))]
				obj := model.ObjectID(r.Intn(200))
				res, err := c.Get(context.Background(), client, server, obj, int64(500+r.Intn(5000)))
				if err != nil {
					errs <- err
					return
				}
				if res.Cost < 0 || res.Hops < 0 {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestClusterContextCancellation(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{Network: h, CacheBytes: 1000, DCacheEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The reply may still win the race; accept either result but never a
	// hang.
	_, err = c.Get(ctx, h.ClientAttachPoints()[0], model.NoNode, 1, 10)
	_ = err
}

func TestClusterStats(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 10000, 100, clk)
	leaf := h.ClientAttachPoints()[0]
	ctx := context.Background()
	for i, ts := range []float64{0, 10, 20} {
		clk.Set(ts)
		if _, err := c.Get(ctx, leaf, model.NoNode, 1, 100); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Requests != 3 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.CacheHits != 1 { // third request hits the leaf
		t.Fatalf("cache hits = %d", st.CacheHits)
	}
	if st.Inserts != 1 { // second request placed at the leaf
		t.Fatalf("inserts = %d", st.Inserts)
	}
	// Request 1: 3 fetch sends (hop 0 issued by Get) ... Get's initial send
	// plus 2 forwards, then 3 deliver hops = 6; request 2 same = 6;
	// request 3: 1 send, leaf hit, no deliver = 1. Total 13.
	if st.Messages != 13 {
		t.Fatalf("messages = %d, want 13", st.Messages)
	}
}

func TestClusterDCacheFactoryOption(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1000,
		DCacheEntries: 10,
		DCacheFactory: dcache.NewLRUStacksFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.node(0).st.DCacheAt(0).(*dcache.LRUStacks); !ok {
		t.Fatal("d-cache factory not honored")
	}
}

// TestClusterMatchesSchemeEnRoute repeats the cross-validation on the
// en-route architecture, where distribution trees differ per origin server
// and routes include the zero-cost co-located origin link.
func TestClusterMatchesSchemeEnRoute(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{
		Objects:  300,
		Servers:  12,
		Clients:  30,
		Requests: 6000,
		Duration: 3600,
		Seed:     29,
	})
	cat := gen.Catalog()
	avg := cat.AvgSize()
	net := topology.GenerateTiers(topology.TiersConfig{}, rand.New(rand.NewSource(8)))
	capacity := int64(0.02 * float64(cat.TotalBytes))
	dEntries := int(3 * float64(capacity) / avg)

	clk := &logicalClock{}
	cluster := newTestCluster(t, net, capacity, dEntries, clk)
	cluster.cfg.AvgObjectSize = avg

	sch := scheme.NewCoordinated()
	nodes := make([]model.NodeID, net.NumCaches())
	for i := range nodes {
		nodes[i] = model.NodeID(i)
	}
	sch.Configure(scheme.Uniform(nodes, capacity, dEntries))

	mans := net.ClientAttachPoints()
	attach := rand.New(rand.NewSource(3))
	clientNode := make([]model.NodeID, cat.NumClients)
	for i := range clientNode {
		clientNode[i] = mans[attach.Intn(len(mans))]
	}
	serverNode := make([]model.NodeID, cat.NumServers)
	for i := range serverNode {
		serverNode[i] = mans[attach.Intn(len(mans))]
	}

	ctx := context.Background()
	for i := 0; ; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		cNode, sNode := clientNode[req.Client], serverNode[req.Server]
		route := net.Route(cNode, sNode)

		clk.Set(req.Time)
		got, err := cluster.Get(ctx, cNode, sNode, req.Object, req.Size)
		if err != nil {
			t.Fatal(err)
		}
		scale := float64(req.Size) / avg
		costs := make([]float64, len(route.UpCost))
		for j, c := range route.UpCost {
			costs[j] = c * scale
		}
		want := sch.Process(req.Time, req.Object, req.Size, scheme.Path{Nodes: route.Caches, UpCost: costs})
		wantServed := model.NoNode
		if want.HitIndex < len(route.Caches) {
			wantServed = route.Caches[want.HitIndex]
		}
		if got.ServedBy != wantServed {
			t.Fatalf("request %d: cluster %d vs scheme %d", i, got.ServedBy, wantServed)
		}
		if len(got.Placed) != len(want.Placed) {
			t.Fatalf("request %d: placements %v vs %v", i, got.Placed, want.Placed)
		}
	}
}

// TestDescriptorPoolsBounded drives an 8-shard cluster to steady state and
// holds every shard's descriptor pool to its d-cache stripe's capacity after
// every request (see the simulator's TestDescriptorPoolBounded).
func TestDescriptorPoolsBounded(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{Objects: 2000, Servers: 10, Clients: 40, Requests: 20000, Duration: 7200, Seed: 5})
	cat := gen.Catalog()
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 3, BaseDelay: 0.008, Growth: 5})
	capacity := int64(0.01 * float64(cat.TotalBytes))
	c, err := NewCluster(Config{Network: h, CacheBytes: capacity, DCacheEntries: int(3 * float64(capacity) / cat.AvgSize()), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaves := h.ClientAttachPoints()
	peak := 0
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := c.Get(context.Background(), leaves[int(req.Client)%len(leaves)], model.NoNode, req.Object, req.Size); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < h.NumCaches(); id++ {
			st := c.node(model.NodeID(id)).st
			for s := 0; s < st.ShardCount(); s++ {
				pooled, limit := st.ShardStatsAt(s).Pooled, st.DCacheAt(s).Capacity()
				if pooled > limit {
					t.Fatalf("node %d shard %d: %d pooled descriptors, d-cache stripe capacity %d", id, s, pooled, limit)
				}
				peak = max(peak, pooled)
			}
		}
	}
	if peak == 0 {
		t.Fatal("no shard ever pooled a descriptor: the run never reached steady state")
	}
	t.Logf("largest shard pool %d", peak)
}
