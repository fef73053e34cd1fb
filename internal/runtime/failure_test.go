package runtime

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/topology"
)

// TestClusterFailRoutesAround kills the middle cache of a 3-level path and
// checks the protocol's skip-dead-hop cost folding: the request still
// reaches the origin at the full path cost, placement still happens below
// the gap, and recovery restores an empty node.
func TestClusterFailRoutesAround(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 10000, 100, clk)
	leaf := h.ClientAttachPoints()[0]
	route := h.Route(leaf, model.NoNode)
	mid := route.Caches[1]
	ctx := context.Background()

	if !c.Fail(mid) {
		t.Fatal("Fail on a live node returned false")
	}
	if got := c.Failed(); len(got) != 1 || got[0] != mid {
		t.Fatalf("Failed() = %v", got)
	}

	// Origin serve across the gap: link costs of the dead hop fold in, so
	// the total is unchanged (1+2+4).
	clk.Set(0)
	r, err := c.Get(ctx, leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedBy != model.NoNode || r.Cost != 7 || r.Degraded {
		t.Fatalf("first request across gap: %+v", r)
	}

	// Placement still works on the surviving path: second sighting caches
	// at the leaf.
	clk.Set(10)
	r, err = c.Get(ctx, leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Placed) != 1 || r.Placed[0] != leaf {
		t.Fatalf("second request: %+v", r)
	}
	clk.Set(20)
	r, _ = c.Get(ctx, leaf, model.NoNode, 1, 100)
	if r.ServedBy != leaf {
		t.Fatalf("third request: %+v", r)
	}

	// Recovery brings the node back empty.
	if !c.Recover(mid) {
		t.Fatal("Recover on a failed node returned false")
	}
	if n := c.node(mid); n.st.StoreLen() != 0 || n.st.DCacheLen() != 0 {
		t.Fatal("recovered node kept state across the crash")
	}
	if got := c.Failed(); got == nil || len(got) != 0 {
		t.Fatalf("Failed() after recovery = %#v, want non-nil empty", got)
	}
	st := c.Stats()
	if st.Failures != 1 || st.Recoveries != 1 || st.RoutedAround == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClusterLifecycleEdgeCases nails the Fail/Recover contract.
func TestClusterLifecycleEdgeCases(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 1000, 10, &logicalClock{})
	if c.Fail(99) || c.Fail(-1) {
		t.Fatal("Fail accepted an unknown node")
	}
	if c.Recover(0) {
		t.Fatal("Recover on a live node succeeded")
	}
	if !c.Fail(0) || c.Fail(0) {
		t.Fatal("Fail not idempotent-false on second call")
	}
	if !c.Recover(0) || c.Recover(0) {
		t.Fatal("Recover not idempotent-false on second call")
	}
}

// TestClusterAllPathNodesDown degrades the Get to an immediate
// origin-direct result, and recovery restores normal service.
func TestClusterAllPathNodesDown(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 10000, 100, clk)
	leaf := h.ClientAttachPoints()[0]
	route := h.Route(leaf, model.NoNode)
	for _, id := range route.Caches {
		c.Fail(id)
	}
	r, err := c.Get(context.Background(), leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.ServedBy != model.NoNode || r.Cost != 7 || r.Hops != route.Hops() {
		t.Fatalf("all-down result: %+v", r)
	}
	if st := c.Stats(); st.OriginFallbacks != 1 {
		t.Fatalf("fallbacks = %d", st.OriginFallbacks)
	}
	for _, id := range route.Caches {
		c.Recover(id)
	}
	r, err = c.Get(context.Background(), leaf, model.NoNode, 1, 100)
	if err != nil || r.Degraded {
		t.Fatalf("post-recovery: %+v %v", r, err)
	}
}

// emptyRouteNet returns no caches for every pair — the bad-attachment case
// that used to panic on route.Caches[0].
type emptyRouteNet struct{}

func (emptyRouteNet) NumCaches() int                         { return 2 }
func (emptyRouteNet) ClientAttachPoints() []model.NodeID     { return []model.NodeID{0} }
func (emptyRouteNet) ServerAttachPoints() []model.NodeID     { return []model.NodeID{1} }
func (emptyRouteNet) Route(c, s model.NodeID) topology.Route { return topology.Route{} }

func TestClusterGetEmptyRouteError(t *testing.T) {
	c, err := NewCluster(Config{Network: emptyRouteNet{}, CacheBytes: 100, DCacheEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get(context.Background(), 0, 1, 7, 10); err == nil {
		t.Fatal("empty route accepted")
	} else if got := err.Error(); got == "" {
		t.Fatal("empty error message")
	}
	if st := c.Stats(); st.Requests != 0 {
		t.Fatalf("invalid request counted: %+v", st)
	}
}

// TestClusterRequestDeadlineFallback loses every protocol message and
// checks that the per-request deadline degrades the Get instead of
// hanging it — and that the cluster still shuts down cleanly.
func TestClusterRequestDeadlineFallback(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1000,
		DCacheEntries: 10,
		Fault:         fault.New(1).WithDrop(1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Get(context.Background(), h.ClientAttachPoints()[0], model.NoNode, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.ServedBy != model.NoNode {
		t.Fatalf("dropped request result: %+v", r)
	}
	st := c.Stats()
	if st.FaultDrops == 0 || st.OriginFallbacks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClusterInjectedCrash crashes a node on its first message via the
// injector; the request completes by routing around the corpse.
func TestClusterInjectedCrash(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	leaf := h.ClientAttachPoints()[0]
	root := h.Route(leaf, model.NoNode).Caches[1]
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1000,
		DCacheEntries: 10,
		Fault:         fault.New(1).WithCrashOn(int64(root), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Get(context.Background(), leaf, model.NoNode, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Root crashed mid-path: origin serves at full cost (1+2), no hang.
	if r.ServedBy != model.NoNode || r.Cost != 3 {
		t.Fatalf("result: %+v", r)
	}
	if !c.node(root).down.Load() {
		t.Fatal("injected crash did not take the node down")
	}
	if st := c.Stats(); st.Failures != 1 || st.RoutedAround == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClusterSaturatedNodeRoutedAround marks a node saturated: sends to it
// fail visibly and requests skip it without waiting.
func TestClusterSaturatedNodeRoutedAround(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	leaf := h.ClientAttachPoints()[0]
	mid := h.Route(leaf, model.NoNode).Caches[1]
	inj := fault.New(1)
	inj.SetSaturated(int64(mid), true)
	c, err := NewCluster(Config{Network: h, CacheBytes: 10000, DCacheEntries: 100, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Get(context.Background(), leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedBy != model.NoNode || r.Cost != 7 {
		t.Fatalf("saturated-hop result: %+v", r)
	}
	inj.SetSaturated(int64(mid), false)
	if _, err := c.Get(context.Background(), leaf, model.NoNode, 1, 100); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RoutedAround == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClusterConcurrentGetFailRecoverClose is the satellite race test:
// parallel Gets against continuous crash/recovery churn, then Close racing
// the tail of the traffic. Run with -race. Every Get must terminate with a
// well-formed result or a closed-cluster error.
func TestClusterConcurrentGetFailRecoverClose(t *testing.T) {
	net := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 3, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       net,
		CacheBytes:    1 << 18,
		DCacheEntries: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := net.ClientAttachPoints()
	numNodes := net.NumCaches()

	var wg sync.WaitGroup
	stopChaos := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			id := model.NodeID(r.Intn(numNodes))
			if r.Intn(2) == 0 {
				c.Fail(id)
			} else {
				c.Recover(id)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var getters sync.WaitGroup
	for w := 0; w < 8; w++ {
		getters.Add(1)
		go func(w int) {
			defer getters.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				leaf := leaves[r.Intn(len(leaves))]
				res, err := c.Get(context.Background(), leaf, model.NoNode,
					model.ObjectID(r.Intn(100)), int64(100+r.Intn(900)))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if res.Cost < 0 || res.Hops < 0 {
					t.Errorf("worker %d: malformed result %+v", w, res)
					return
				}
			}
		}(w)
	}
	getters.Wait()
	close(stopChaos)
	wg.Wait()
	c.Close()
	// Post-close Gets fail cleanly.
	if _, err := c.Get(context.Background(), leaves[0], model.NoNode, 1, 10); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}

// TestClusterFailDuringInflightGets crashes nodes while requests are in
// flight; the deadline guarantees termination and Close stays clean.
func TestClusterFailDuringInflightGets(t *testing.T) {
	net := topology.GenerateTree(topology.TreeConfig{Depth: 4, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       net,
		CacheBytes:    1 << 16,
		DCacheEntries: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := net.ClientAttachPoints()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				leaf := leaves[r.Intn(len(leaves))]
				if _, err := c.Get(context.Background(), leaf, model.NoNode,
					model.ObjectID(r.Intn(50)), 256); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	// Kill and revive the upper half of the tree while traffic flows.
	for k := 0; k < 20; k++ {
		id := model.NodeID(k % net.NumCaches())
		c.Fail(id)
		time.Sleep(2 * time.Millisecond)
		c.Recover(id)
	}
	wg.Wait()
	c.Close()
}
