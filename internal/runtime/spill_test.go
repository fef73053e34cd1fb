package runtime

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/store"
	"cascade/internal/topology"
)

// sizeOf keeps object sizes deterministic across every worker, so a
// replayed placement always carries the same byte count and the data-plane
// accounting below can be exact.
func sizeOf(obj model.ObjectID) int64 { return 1024 + int64(obj%7)*512 }

// TestLateSpillKeepsReplacedVictim forces, step by step, the interleaving
// behind TestShardedSpillHammer's old flake. Walk A's placement
// (engine.Hop.Place) stores X and evicts Y; walk B then places Y again,
// evicting X; only then does A's down step spill its victims. Y's
// descriptor is back in the store by then, so its fresh body must stay in
// the memory tier: moving it to disk would leave the descriptor store one
// object ahead of the memory tier.
func TestLateSpillKeepsReplacedVictim(t *testing.T) {
	const size = 1024
	c, err := NewCluster(Config{
		Network:       topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 1, BaseDelay: 1}),
		CacheBytes:    size, // room for exactly one object
		DCacheEntries: 16,
		AvgObjectSize: size,
		Clock:         func() float64 { return 0 },
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.node(0)
	hop := engine.Hop{St: n.st, Tier: n.bodies}
	const x, y = model.ObjectID(1), model.ObjectID(2)
	down := func(obj model.ObjectID, now float64) { // a whole down step
		t.Helper()
		q := engine.Req{Obj: obj, FloorObj: obj, Size: size, Now: now}
		if out := engine.Down(hop, &q, 0, 0, true, 0, 1, store.SyntheticBody(obj, size), ""); !out.Placed {
			t.Fatalf("object %d not placed", obj)
		}
	}
	down(y, 1)
	qA := engine.Req{Obj: x, FloorObj: x, Size: size, Now: 2}
	out, evA := hop.Place(&qA, true, 1, store.SyntheticBody(x, size), "") // walk A evicts y
	if !out.Placed || len(evA) != 1 || evA[0] != y {
		t.Fatalf("walk A placed=%v evicting %v, want [%d]", out.Placed, evA, y)
	}
	down(y, 3)                          // walk B re-places y, evicting x
	hop.Spill(&engine.Req{Now: 2}, evA) // walk A's victims, late
	if err := hop.CheckBytes(); err != nil {
		t.Fatal(err)
	}
	if _, _, src := n.bodies.Get(y); src != store.SrcMemory {
		t.Fatalf("y's body served from %v, want the memory tier", src)
	}
	if _, _, src := n.bodies.Get(x); src != store.SrcDisk {
		t.Fatalf("x's body served from %v, want the disk tier", src)
	}
}

// TestShardedSpillHammer is TestShardedClusterHammer's data-plane sibling:
// same multi-shard cluster and request workers plus drain/admit churn and a
// metrics scraper, but with the disk spill tier enabled and capacities
// small enough that NCL evictions (and therefore spills, disk hits and
// promotions) happen constantly. Afterwards the auditor must have seen
// zero violations and every surviving node's body store must mirror its
// descriptor store byte for byte: a payload is in the memory tier exactly
// when its descriptor is in the main store. No Fail/Recover here — a crash
// legitimately abandons body state, which would turn the exactness
// assertions into races on purpose. Run under -race.
func TestShardedSpillHammer(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Add(1)) * 1e-4 }
	const capacity = 1 << 16 // ~30 objects per node: constant eviction churn
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    capacity,
		DCacheEntries: 1024,
		AvgObjectSize: 2048,
		Clock:         clock,
		Shards:        8,
		EnableAudit:   true,
		SpanCapacity:  64,
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaves := h.ClientAttachPoints()
	ctx := context.Background()
	var wg sync.WaitGroup

	const workers, perWorker = 4, 500
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				obj := model.ObjectID(rng.Intn(300))
				leaf := leaves[rng.Intn(len(leaves))]
				if _, err := c.Get(ctx, leaf, model.NoNode, obj, sizeOf(obj)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w) + 100)
	}

	// Membership churn: a drain spills the departing node's payloads to
	// disk, and the re-admitted node adopts them.
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
	if st.Spills == 0 {
		t.Fatalf("capacity churn produced no spills: %+v", st)
	}
	if st.SpillHits == 0 || st.Promotions == 0 {
		t.Fatalf("no request was served from a disk tier: %+v", st)
	}

	// Exact memory-tier parity on every surviving node: bytes in the body
	// store's memory tier == bytes the descriptor store accounts for, and
	// object counts match. Spilled bytes live on disk, outside both sums.
	for id := model.NodeID(0); int(id) < h.NumCaches(); id++ {
		if !c.aliveNode(id) {
			continue
		}
		n := c.node(id)
		if n.bodies == nil {
			t.Fatalf("node %d: spill configured but no body store", id)
		}
		bs := n.bodies.Stats()
		if bs.MemBytes != n.st.Used() {
			t.Errorf("node %d: memory tier %d bytes, descriptor store %d", id, bs.MemBytes, n.st.Used())
		}
		if bs.MemObjects != n.st.StoreLen() {
			t.Errorf("node %d: memory tier %d objects, store %d", id, bs.MemObjects, n.st.StoreLen())
		}
		if bs.CorruptReads != 0 {
			t.Errorf("node %d: %d corrupt disk reads", id, bs.CorruptReads)
		}
	}
}
