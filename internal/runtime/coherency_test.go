package runtime

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/topology"
)

// TestClusterInvalidatePropagates pins the deterministic write path: after a
// copy is placed, an origin-driven Invalidate raises every node's floor, the
// stale copy can no longer be served, and the next Get refetches at the new
// generation.
func TestClusterInvalidatePropagates(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 1, BaseDelay: 1, Growth: 2})
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Add(1)) * 1e-3 }
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1 << 20,
		DCacheEntries: 256,
		Clock:         clock,
		CoherencyMode: coherency.ModeCAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	leaf := h.ClientAttachPoints()[0]
	const obj = model.ObjectID(42)

	// Warm the object until some cache holds it.
	var cached bool
	for i := 0; i < 6; i++ {
		r, err := c.Get(ctx, leaf, model.NoNode, obj, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if r.ServedBy != model.NoNode {
			cached = true
			break
		}
	}
	if !cached {
		t.Fatal("object never got cached")
	}
	genBefore := c.Authority().Gen(obj)

	gen := c.Invalidate(obj)
	if gen != genBefore+1 {
		t.Fatalf("Invalidate returned gen %d, want %d", gen, genBefore+1)
	}
	for id := model.NodeID(0); int(id) < h.NumCaches(); id++ {
		if floor := c.CoherencyView(id).Floor(obj); floor != gen {
			t.Fatalf("node %d floor %d after push, want %d", id, floor, gen)
		}
	}

	r, err := c.Get(ctx, leaf, model.NoNode, obj, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.ServedGen != gen {
		t.Fatalf("post-invalidate Get served gen %d, want %d (served by %d)", r.ServedGen, gen, r.ServedBy)
	}
}

// TestClusterCoherencyHammer is the strict-mode race gauntlet: request
// workers, concurrent origin writes (bulk invalidations pushed down the
// tree), spill/promote traffic through a tiny cache with a disk tier,
// crash/recover and drain/admit churn — all on the sharded engine under
// audit. The hard guarantees checked afterwards: under ModeCAS no request
// was ever served a generation older than the origin's generation at the
// instant the request started (zero stale serves), and the online auditor
// saw zero invariant violations. Run under -race (the Makefile does).
func TestClusterCoherencyHammer(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Add(1)) * 1e-4 }
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    64 << 10, // small: placements evict, evictions spill
		DCacheEntries: 512,
		AvgObjectSize: 2048,
		Clock:         clock,
		Shards:        8,
		EnableAudit:   true,
		SpanCapacity:  64,
		SpillDir:      t.TempDir(),
		CoherencyMode: coherency.ModeCAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaves := h.ClientAttachPoints()
	ctx := context.Background()
	auth := c.Authority()
	var wg sync.WaitGroup

	const workers, perWorker, objects = 4, 300, 200
	errs := make(chan error, workers)
	var staleServes atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				obj := model.ObjectID(rng.Intn(objects))
				size := int64(1024 + int(obj%7)*512)
				leaf := leaves[rng.Intn(len(leaves))]
				// The CAS contract: whatever generation the origin holds
				// when the Get starts is the floor the response must meet.
				floor := auth.Gen(obj)
				r, err := c.Get(ctx, leaf, model.NoNode, obj, size)
				if err != nil {
					errs <- err
					return
				}
				if r.ServedGen < floor {
					staleServes.Add(1)
				}
			}
		}(int64(w) + 7)
	}

	// Writers: concurrent origin-driven invalidations over the hot objects.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				c.Invalidate(model.ObjectID(rng.Intn(objects)))
			}
		}(int64(w) + 900)
	}

	// Chaos: crash/recover an interior node (its replacement adopts the
	// previous incarnation's spill files and must re-validate them).
	interior := h.Route(leaves[0], model.NoNode).Caches[1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			c.Fail(interior)
			c.Recover(interior)
		}
	}()

	// Membership churn: drain and re-admit a leaf.
	churnLeaf := leaves[len(leaves)-1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if c.Drain(ctx, churnLeaf) {
				c.Admit(churnLeaf)
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := staleServes.Load(); n != 0 {
		t.Fatalf("%d stale serves in strict (CAS) mode", n)
	}
	if v := c.Auditor().TotalViolations(); v != 0 {
		t.Fatalf("%d audit violations under concurrency", v)
	}
	st := c.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("requests %d, want %d", st.Requests, workers*perWorker)
	}
	if st.CacheHits == 0 || st.Inserts == 0 || st.Spills == 0 {
		t.Fatalf("workload too cold to be meaningful: %+v", st)
	}
}

// TestClusterInvalidateDropsBytes: a pushed invalidation demotes a tiered
// node's copy, and its bytes must leave the memory tier with it.
func TestClusterInvalidateDropsBytes(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 1, BaseDelay: 1})
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Add(1)) * 1e-3 }
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1 << 20,
		DCacheEntries: 256,
		Clock:         clock,
		CoherencyMode: coherency.ModeCAS,
		SpillDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaf := h.ClientAttachPoints()[0]
	const obj = model.ObjectID(7)
	for i := 0; i < 5; i++ {
		if _, err := c.Get(context.Background(), leaf, model.NoNode, obj, 1024); err != nil {
			t.Fatal(err)
		}
	}
	held := false
	for id := 0; id < h.NumCaches(); id++ {
		held = held || c.node(model.NodeID(id)).st.Contains(obj)
	}
	if !held {
		t.Fatal("object never got cached")
	}
	c.Invalidate(obj)
	bytesMatchDescriptors(t, c)
}

// bytesMatchDescriptors fails the test unless every tiered node's memory
// tier holds exactly the bytes and objects of its descriptor store.
func bytesMatchDescriptors(t *testing.T, c *Cluster) {
	t.Helper()
	for id := range c.slots {
		if err := c.CheckBytes(model.NodeID(id)); err != nil {
			t.Error(err)
		}
	}
}

// TestTieredStepsHammer runs Up against Down through a tiered, coherent
// (CAS) cluster. Every request enters at the same leaf of a two-cache chain
// with room for every object, so a copy, once placed, stays: a request that
// starts after an earlier one placed its object, or was served from a copy,
// must hit. A reader racing the placement therefore must never find the
// descriptor without its bytes and demote it. Each round sets the workers
// on a few fresh objects at once, so first placements race their readers.
// Then writes push invalidations while the readers run — a demotion's byte
// drop racing a re-placement — and every node's bytes must still match its
// descriptors.
func TestTieredStepsHammer(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 1, BaseDelay: 1})
	var tick atomic.Int64
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    1 << 22,
		DCacheEntries: 1024,
		AvgObjectSize: 2048,
		Clock:         func() float64 { return float64(tick.Add(1)) * 1e-4 },
		Shards:        4,
		EnableAudit:   true,
		SpillDir:      t.TempDir(),
		CoherencyMode: coherency.ModeCAS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaf := h.ClientAttachPoints()[0]
	const rounds, perRound, workers, perWorker = 200, 4, 4, 16
	var served [rounds * perRound]atomic.Bool
	var lost atomic.Int64
	run := func(round int, writes bool) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				<-start
				for i := 0; i < perWorker; i++ {
					obj := round*perRound + rng.Intn(perRound)
					if writes && rng.Intn(4) == 0 {
						c.Invalidate(model.ObjectID(obj))
						continue
					}
					before := served[obj].Load()
					res, err := c.Get(context.Background(), leaf, model.NoNode, model.ObjectID(obj), 2048)
					if err != nil {
						errs <- err
						return
					}
					if before && res.ServedBy == model.NoNode && !writes {
						lost.Add(1)
					}
					if res.ServedBy != model.NoNode || len(res.Placed) > 0 {
						served[obj].Store(true)
					}
				}
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		run(r, false)
	}
	if n := lost.Load(); n != 0 {
		t.Errorf("%d requests missed an object an earlier request had placed", n)
	}
	bytesMatchDescriptors(t, c)
	for r := 0; r < rounds; r += 10 {
		run(r, true)
	}
	bytesMatchDescriptors(t, c)
	if v := c.Auditor().TotalViolations(); v != 0 {
		t.Fatalf("%d audit violations under concurrency", v)
	}
}
