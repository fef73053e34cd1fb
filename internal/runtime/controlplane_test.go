package runtime

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/controlplane"
	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/topology"
)

// TestClusterDrainSpillsToParent drains a warm leaf and checks the whole
// cooperative hand-off: the node leaves the routing view, its descriptors
// land in the parent's d-cache, Failed() does not report it (a drain is not
// a failure), and Admit restores a fresh empty node.
func TestClusterDrainSpillsToParent(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1000,
		DCacheEntries: 10,
		Clock:         clk.Now,
		SpanCapacity:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	leaf := h.ClientAttachPoints()[0]
	parent := h.Parent(leaf)

	// Warm the leaf: second sighting places a copy there.
	for i := 0; i < 2; i++ {
		clk.Set(float64(10 * (i + 1)))
		if _, err := c.Get(ctx, leaf, model.NoNode, 1, 100); err != nil {
			t.Fatal(err)
		}
	}
	if c.node(leaf).st.StoreLen() != 1 {
		t.Fatal("warm-up did not place a copy at the leaf")
	}

	clk.Set(30)
	if !c.Drain(ctx, leaf) {
		t.Fatal("Drain returned false")
	}
	if c.Drain(ctx, leaf) {
		t.Fatal("second Drain of the same node should be a no-op")
	}
	if got := c.cp.StateOf(leaf); got != controlplane.Removed {
		t.Fatalf("membership after drain = %v, want removed", got)
	}
	if c.aliveNode(leaf) {
		t.Fatal("drained node's actor should be detached")
	}
	if got := c.Failed(); len(got) != 0 {
		t.Fatalf("Failed() = %v; a drained node is not a failure", got)
	}

	// The spill lands in the parent's d-cache before Drain returns; the
	// loop below passes on its first look.
	deadline := time.After(2 * time.Second)
	for {
		if c.node(parent).st.DCacheContains(1) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("spilled descriptor never reached the parent's d-cache")
		case <-time.After(time.Millisecond):
		}
	}

	// Requests keep flowing around the drained node.
	clk.Set(40)
	if _, err := c.Get(ctx, leaf, model.NoNode, 2, 100); err != nil {
		t.Fatal(err)
	}

	// Recover must refuse a drained node; Admit restores it empty.
	if c.Recover(leaf) {
		t.Fatal("Recover on a drained node should refuse (use Admit)")
	}
	if !c.Admit(leaf) {
		t.Fatal("Admit returned false")
	}
	if c.Admit(leaf) {
		t.Fatal("second Admit should be a no-op")
	}
	n := c.node(leaf)
	if n == nil || n.down.Load() {
		t.Fatal("admitted node's actor should be running")
	}
	if n.st.StoreLen() != 0 || n.st.DCacheLen() != 0 {
		t.Fatal("admitted node must start empty")
	}
	if !c.routable(leaf) {
		t.Fatal("admitted node should be routable")
	}

	// The slot's span ring kept the membership transitions.
	membership := 0
	for _, ev := range events(c.DumpSpans(leaf).Spans) {
		if ev.Phase == span.PhaseMembership {
			membership++
		}
	}
	if membership != 3 { // drain, remove, admit
		t.Fatalf("got %d membership event records, want 3", membership)
	}
}

// TestClusterSetHealthGatesRouting probes the health path: a Down node is
// routed around exactly like a crashed one (link cost folded), and comes
// back when healthy.
func TestClusterSetHealthGatesRouting(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 1000, 10, clk)
	ctx := context.Background()

	leaf := h.ClientAttachPoints()[0]
	mid := h.Route(leaf, model.NoNode).Caches[1]

	if !c.SetHealth(mid, controlplane.Down) {
		t.Fatal("SetHealth returned false")
	}
	clk.Set(10)
	r, err := c.Get(ctx, leaf, model.NoNode, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Down hop folded: full path cost still paid, node skipped.
	if r.Cost != 3 {
		t.Fatalf("cost with mid down = %v, want 3 (link folded)", r.Cost)
	}
	if c.Stats().RoutedAround == 0 {
		t.Fatal("down node was not routed around")
	}
	// The node itself is alive the whole time — health is routing, not
	// lifecycle.
	if !c.aliveNode(mid) {
		t.Fatal("health gating must not stop the actor")
	}
	c.SetHealth(mid, controlplane.Healthy)
	if !c.routable(mid) {
		t.Fatal("healthy node should be routable again")
	}
}

// TestClusterHealthChecker drives the active prober end to end: crash a
// node, let the checker walk it to Down, recover it, and watch it return to
// Healthy.
func TestClusterHealthChecker(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 1000, 10, clk)
	leaf := h.ClientAttachPoints()[0]

	stop := make(chan struct{})
	defer close(stop)
	ck := c.StartHealthChecker(controlplane.CheckerConfig{
		Interval: time.Hour, // ticks driven manually below
	}, stop)

	c.Fail(leaf)
	for i, want := range []controlplane.Health{controlplane.Suspect, controlplane.Suspect, controlplane.Down} {
		ck.Tick()
		if got := c.cp.HealthOf(leaf); got != want {
			t.Fatalf("after %d failed probes: %v, want %v", i+1, got, want)
		}
	}
	c.Recover(leaf)
	for i, want := range []controlplane.Health{controlplane.Down, controlplane.Healthy} {
		ck.Tick()
		if got := c.cp.HealthOf(leaf); got != want {
			t.Fatalf("after %d recovery probes: %v, want %v", i+1, got, want)
		}
	}
}

// TestClusterNoLostGetsAcrossEpochFlips is the satellite robustness gate:
// concurrent Admit/Drain/Fail/Recover with fault injection active while
// request workers hammer the cascade. Every Get must return (the epoch
// guard may delay a drain, never a request), and the online auditor must
// stay silent.
func TestClusterNoLostGetsAcrossEpochFlips(t *testing.T) {
	net := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 3, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       net,
		CacheBytes:    1 << 18,
		DCacheEntries: 200,
		EnableAudit:   true,
		Fault:         fault.New(7).WithDrop(0.02),
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := net.ClientAttachPoints()
	numNodes := net.NumCaches()

	var started, finished atomic.Int64
	stopChaos := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		r := rand.New(rand.NewSource(42))
		ctx := context.Background()
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			id := model.NodeID(r.Intn(numNodes))
			switch r.Intn(4) {
			case 0:
				c.Drain(ctx, id)
			case 1:
				c.Admit(id)
			case 2:
				c.Fail(id)
			default:
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
				started.Add(1)
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
				finished.Add(1)
			}
		}(w)
	}
	getters.Wait()
	close(stopChaos)
	chaos.Wait()
	c.Close()

	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("lost in-flight requests across epoch flips: started %d, finished %d", s, f)
	}
	if got := c.Auditor().TotalViolations(); got != 0 {
		t.Fatalf("audit violations under membership chaos: %d", got)
	}
}
