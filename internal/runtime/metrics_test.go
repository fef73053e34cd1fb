package runtime

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/topology"
)

// TestClusterMetricsAccounting replays a small deterministic workload and
// checks that the per-node instruments agree with the cluster result
// stream: placements show up as node inserts and the Prometheus export
// carries the per-node series.
func TestClusterMetricsAccounting(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c := newTestCluster(t, h, 10000, 100, clk)
	leaf := h.ClientAttachPoints()[0]
	ctx := context.Background()

	placed := 0
	for i := 0; i < 6; i++ {
		clk.Set(float64(10 * i))
		r, err := c.Get(ctx, leaf, model.NoNode, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		placed += len(r.Placed)
	}
	if placed == 0 {
		t.Fatal("workload produced no placements; test premise broken")
	}

	snap := c.MetricsSnapshot()
	if snap.Stats.Requests != 6 {
		t.Fatalf("requests = %d", snap.Stats.Requests)
	}
	if len(snap.Nodes) != h.NumCaches() {
		t.Fatalf("node metrics for %d of %d nodes", len(snap.Nodes), h.NumCaches())
	}
	var inserts int64
	for _, nm := range snap.Nodes {
		if !nm.Up {
			t.Fatalf("node %d reported down", nm.Node)
		}
		inserts += nm.Inserts
	}
	if inserts != snap.Stats.Inserts {
		t.Fatalf("per-node inserts %d != cluster inserts %d", inserts, snap.Stats.Inserts)
	}

	var b strings.Builder
	if err := c.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cascade_cluster_requests_total counter",
		"cascade_cluster_requests_total 6",
		`cascade_node_inserts_total{node="0"}`,
		`cascade_node_up{node="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsSnapshotConcurrent hammers a cluster with concurrent Gets
// under an active fault injector and node crash/recovery cycles while
// continuously reading MetricsSnapshot and scraping the Prometheus export.
// Run under -race this proves the observability surface needs no caller
// locking.
func TestMetricsSnapshotConcurrent(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    4096,
		DCacheEntries: 64,
		Fault:         fault.New(7).WithDrop(0.05),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaves := h.ClientAttachPoints()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				leaf := leaves[(w+i)%len(leaves)]
				_, _ = c.Get(ctx, leaf, model.NoNode, model.ObjectID(i%17), 64)
			}
		}(w)
	}

	// Crash/recover the mid-tree node while requests are in flight.
	route := h.Route(leaves[0], model.NoNode)
	mid := route.Caches[1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Fail(mid)
			time.Sleep(time.Millisecond)
			c.Recover(mid)
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: snapshot API and Prometheus scrape.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := c.MetricsSnapshot()
			if len(snap.Nodes) != h.NumCaches() {
				t.Errorf("snapshot lost nodes: %d", len(snap.Nodes))
				return
			}
			var b strings.Builder
			if err := c.Metrics().WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	snap := c.MetricsSnapshot()
	if snap.Stats.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if snap.Stats.Failures == 0 || snap.Stats.Recoveries == 0 {
		t.Fatalf("crash loop did not register: %+v", snap.Stats)
	}
}
