package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"cascade"
	"cascade/internal/metrics"
)

// batch is how many in-process operations are timed as one unit. At a few
// microseconds per operation a clock read per operation would be a tenth
// of what it measures; one per 256 is noise.
const batch = 256

// clusterOp is one pre-generated cluster request, attachment point
// already resolved.
type clusterOp struct {
	obj  uint32
	size uint32
	leaf uint16
}

// clusterInputs draws the warm-up and every user's request stream. The
// stream is dealt round-robin to the users so both see the same popularity
// law.
func clusterInputs(seed int64, warm, perUser int) (cat *cascade.Catalog, warmOps []clusterOp, streams [][]clusterOp) {
	cat = worldCatalog()
	stream := newRequestStream(seed, cat)
	leaves := cascade.GenerateTree(cascade.DefaultTreeConfig()).ClientAttachPoints()
	attach := rand.New(rand.NewSource(worldSeed))
	leafOf := make([]uint16, cat.NumClients)
	for i := range leafOf {
		leafOf[i] = uint16(leaves[attach.Intn(len(leaves))])
	}
	next := func() clusterOp {
		r := stream.next()
		return clusterOp{obj: uint32(r.Object), size: uint32(r.Size), leaf: leafOf[r.Client]}
	}
	warmOps = make([]clusterOp, warm)
	for i := range warmOps {
		warmOps[i] = next()
	}
	streams = make([][]clusterOp, users)
	for u := range streams {
		streams[u] = make([]clusterOp, perUser)
	}
	for i := 0; i < perUser; i++ {
		for u := range streams {
			streams[u][i] = next()
		}
	}
	return cat, warmOps, streams
}

// clusterSystem is the cluster_get workload's system plus the harness's
// output checks.
type clusterSystem struct {
	cl   *cascade.Cluster
	tree *cascade.HierarchyNetwork
	checks
}

func buildCluster(cat *cascade.Catalog, spanSample float64) (*clusterSystem, error) {
	tree := cascade.GenerateTree(cascade.DefaultTreeConfig())
	capacity := cat.TotalBytes / 100
	cfg := cascade.ClusterConfig{
		Network:       tree,
		CacheBytes:    capacity,
		DCacheEntries: int(3 * float64(capacity) / cat.AvgSize()),
		AvgObjectSize: cat.AvgSize(),
		Shards:        8,
		EnableAudit:   true,
	}
	if spanSample > 0 {
		cfg.SpanCapacity, cfg.SpanSample = 512, spanSample
	}
	cl, err := cascade.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &clusterSystem{cl: cl, tree: tree}, nil
}

// get issues one request and checks what can be checked from outside: no
// error, no degraded fallback, a positive cost, and — on 1 request in 64 —
// that the serving node lies on the client's route.
func (s *clusterSystem) get(ctx context.Context, op clusterOp, seq int) (hit bool) {
	res, err := s.cl.Get(ctx, cascade.NodeID(op.leaf), cascade.NoNode, cascade.ObjectID(op.obj), int64(op.size))
	switch {
	case err != nil:
		s.noteFailure("Get %d: %v", op.obj, err)
	case res.Degraded:
		s.noteFailure("Get %d: degraded origin-direct fallback", op.obj)
	case res.Cost <= 0 && res.ServedBy == cascade.NoNode:
		s.noteFailure("Get %d: origin-served at cost %v", op.obj, res.Cost)
	case seq%64 == 0 && res.ServedBy != cascade.NoNode && !onRoute(s.tree, cascade.NodeID(op.leaf), res.ServedBy):
		s.noteFailure("Get %d: served by node %d, not on the route from leaf %d", op.obj, res.ServedBy, op.leaf)
	}
	return err == nil && res.ServedBy != cascade.NoNode
}

func onRoute(tree *cascade.HierarchyNetwork, leaf, node cascade.NodeID) bool {
	for _, n := range tree.Route(leaf, cascade.NoNode).Caches {
		if n == node {
			return true
		}
	}
	return false
}

// passTotals is one in-process pass's accounting beyond its samples.
type passTotals struct {
	ops, bytes, hitBytes int64 // hitBytes: cluster only; the simulator reports its own Summary
	bad                  int64 // simulator samples that disagree with their request
	elapsed              time.Duration
	sampledNs            []float64 // per-operation time of every 64th operation (traced passes)
}

// drive runs every user's stream until perUser operations are done
// (perUser > 0) or the window has elapsed. With rec set, every 64th
// operation is timed on its own and recorded as a span.
func (s *clusterSystem) drive(streams [][]clusterOp, window time.Duration, perUser int, rec *recorder) ([][]sample, passTotals) {
	out := make([][]sample, len(streams))
	totals := make([]passTotals, len(streams))
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for u, ops := range streams {
		wg.Add(1)
		go func(u int, ops []clusterOp) {
			defer wg.Done()
			var t passTotals
			for i := 0; perUser == 0 || i < perUser; {
				t0 := time.Now()
				if perUser == 0 && t0.Sub(start) >= window {
					break
				}
				n := batch
				if perUser > 0 && perUser-i < n {
					n = perUser - i
				}
				var b, hb int64
				for j := 0; j < n; j++ {
					op := ops[(i+j)%len(ops)]
					var sp span
					sampled := rec != nil && (i+j)%64 == 0
					if sampled {
						sp = span{ID: rec.newID(), Name: spanClusterOp, Start: rec.now()}
					}
					hit := s.get(ctx, op, i+j)
					if sampled {
						sp.End = rec.now()
						rec.add(sp)
						t.sampledNs = append(t.sampledNs, float64(sp.End-sp.Start))
					}
					b += int64(op.size)
					if hit {
						hb += int64(op.size)
					}
				}
				t1 := time.Now()
				out[u] = append(out[u], sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), ops: int32(n), bytes: b})
				t.ops += int64(n)
				t.bytes += b
				t.hitBytes += hb
				i += n
			}
			totals[u] = t
		}(u, ops)
	}
	wg.Wait()
	var sum passTotals
	sum.elapsed = time.Since(start)
	for _, t := range totals {
		sum.ops += t.ops
		sum.bytes += t.bytes
		sum.hitBytes += t.hitBytes
		sum.sampledNs = append(sum.sampledNs, t.sampledNs...)
	}
	s.attempted.Add(sum.ops)
	return out, sum
}

func (s *clusterSystem) warmUp(ops []clusterOp) {
	per := len(ops) / users
	streams := make([][]clusterOp, users)
	for u := range streams {
		streams[u] = ops[u*per : (u+1)*per]
	}
	s.drive(streams, 0, per, nil)
}

// simOp is one pre-generated simulator request; server and size come from
// the catalog at replay.
type simOp struct {
	time   float64
	obj    uint32
	client uint16
}

func simInputs(seed int64, n int) (*cascade.Catalog, []simOp) {
	cat := worldCatalog()
	stream := newRequestStream(seed, cat)
	ops := make([]simOp, n)
	for i := range ops {
		r := stream.next()
		ops[i] = simOp{time: r.Time, obj: uint32(r.Object), client: uint16(r.Client)}
	}
	return cat, ops
}

// simSystem is the sim_replay workload's system: the paper's own
// experiment loop, coordinated scheme on the en-route Tiers topology.
type simSystem struct {
	sim *cascade.Simulator
	cat *cascade.Catalog
}

func buildSim(cat *cascade.Catalog) (*simSystem, error) {
	net := cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(worldSeed)))
	sim, err := cascade.NewSimulator(cascade.SimConfig{
		Scheme:            cascade.NewCoordinated(),
		Network:           net,
		Catalog:           cat,
		RelativeCacheSize: 0.01,
		Seed:              worldSeed,
	})
	if err != nil {
		return nil, err
	}
	return &simSystem{sim: sim, cat: cat}, nil
}

func (s *simSystem) request(op simOp) cascade.Request {
	o := s.cat.Objects[op.obj]
	return cascade.Request{Time: op.time, Client: cascade.ClientID(op.client), Object: o.ID, Server: o.Server, Size: o.Size}
}

// replay processes ops[from:] until count operations are done (count > 0),
// the window has elapsed, or the stream ends — the simulator's clock is the
// trace's, so the stream cannot wrap. Every sample goes through the
// repository's own Collector so the pass ends in a metrics.Summary.
func (s *simSystem) replay(ops []simOp, window time.Duration, count int, rec *recorder) ([]sample, passTotals, cascade.Summary) {
	if count > 0 && count < len(ops) {
		ops = ops[:count]
	}
	var out []sample
	var t passTotals
	var col metrics.Collector
	start := time.Now()
	for i := 0; i < len(ops); {
		t0 := time.Now()
		if count == 0 && t0.Sub(start) >= window {
			break
		}
		n := batch
		if len(ops)-i < n {
			n = len(ops) - i
		}
		var b int64
		for j := 0; j < n; j++ {
			req := s.request(ops[i+j])
			var sp span
			sampled := rec != nil && (i+j)%64 == 0
			if sampled {
				sp = span{ID: rec.newID(), Name: spanSimOp, Start: rec.now()}
			}
			smp := s.sim.Process(req)
			if sampled {
				sp.End = rec.now()
				rec.add(sp)
				t.sampledNs = append(t.sampledNs, float64(sp.End-sp.Start))
			}
			if smp.Size != req.Size || smp.Latency < 0 || smp.Hops < 0 {
				t.bad++
			}
			col.Add(smp)
			b += smp.Size
		}
		t1 := time.Now()
		out = append(out, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), ops: int32(n), bytes: b})
		t.ops += int64(n)
		t.bytes += b
		i += n
	}
	t.elapsed = time.Since(start)
	return out, t, col.Summary()
}
