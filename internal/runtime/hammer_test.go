package runtime

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cascade/internal/model"
	"cascade/internal/topology"
)

// TestShardedClusterHammer exercises a multi-shard cluster the way the race
// detector likes it least: four request workers on the direct data plane,
// a crash/recover loop, a drain/admit loop and a metrics scraper all running
// at once. The assertions afterwards are the protocol's hard guarantees —
// the online auditor saw zero invariant violations, and every node's byte
// accounting is exact: per-shard occupancy sums to the aggregate, no shard
// exceeds its capacity slice, and the descriptor snapshots account for every
// held byte. Run under -race (the Makefile's test target does).
func TestShardedClusterHammer(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Add(1)) * 1e-4 }
	const capacity = 1 << 19
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    capacity,
		DCacheEntries: 1024,
		AvgObjectSize: 2048,
		Clock:         clock,
		Shards:        8,
		EnableAudit:   true,
		SpanCapacity:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaves := h.ClientAttachPoints()
	ctx := context.Background()
	var wg sync.WaitGroup

	// Request workers: the only goroutines whose failures stop the test.
	const workers, perWorker = 4, 400
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				obj := model.ObjectID(rng.Intn(500))
				size := int64(1024 + int(obj%7)*512)
				leaf := leaves[rng.Intn(len(leaves))]
				if _, err := c.Get(ctx, leaf, model.NoNode, obj, size); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w) + 100)
	}

	// Chaos: crash and recover an interior node repeatedly.
	interior := h.Route(leaves[0], model.NoNode).Caches[1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.Fail(interior)
			c.Recover(interior)
		}
	}()

	// Membership churn: drain one leaf (spilling into its parent's
	// d-cache) and admit it back, repeatedly.
	churnLeaf := leaves[len(leaves)-1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if c.Drain(ctx, churnLeaf) {
				c.Admit(churnLeaf)
			}
		}
	}()

	// Scraper: aggregate snapshots plus the Prometheus export, which reads
	// the per-shard counters lock-free while the shards churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.MetricsSnapshot()
			c.Stats()
			c.Metrics().WritePrometheus(io.Discard) //nolint:errcheck
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v := c.Auditor().TotalViolations(); v != 0 {
		t.Fatalf("%d audit violations under concurrency", v)
	}
	st := c.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("requests %d, want %d", st.Requests, workers*perWorker)
	}
	if st.CacheHits == 0 || st.Inserts == 0 {
		t.Fatalf("workload too cold to be meaningful: %+v", st)
	}

	// Exact capacity accounting on every surviving node, per shard and in
	// aggregate.
	for id := model.NodeID(0); int(id) < h.NumCaches(); id++ {
		if !c.aliveNode(id) {
			continue
		}
		n := c.node(id)
		if got := n.st.Capacity(); got != capacity {
			t.Errorf("node %d: capacity %d, want %d", id, got, capacity)
		}
		used := n.st.Used()
		var perShard, snapSum int64
		for s := 0; s < n.st.ShardCount(); s++ {
			stats := n.st.ShardStatsAt(s)
			perShard += stats.UsedBytes
			if stats.UsedBytes > stats.CapacityBytes {
				t.Errorf("node %d shard %d: %d bytes exceed the %d-byte slice", id, s, stats.UsedBytes, stats.CapacityBytes)
			}
		}
		for _, snap := range n.st.Snapshot() {
			snapSum += snap.Size
		}
		if perShard != used || snapSum != used {
			t.Errorf("node %d: used %d, shards sum %d, snapshots sum %d", id, used, perShard, snapSum)
		}
		if n.st.ShardCount() != 8 {
			t.Errorf("node %d: %d shards, want 8", id, n.st.ShardCount())
		}
	}
}
