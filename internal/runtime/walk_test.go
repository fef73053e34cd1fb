package runtime

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/topology"
)

// hookedDCache runs a callback on every RecordAccess. UpMiss records the
// access after the hop's delivery, so a hook on the top cache of a route
// fires when the upstream pass has delivered its last message and before the
// downstream pass delivers its first — the one point where a serial test
// can change the injector between the passes.
type hookedDCache struct {
	dcache.DCache
	hook *func()
}

func (h hookedDCache) RecordAccess(id model.ObjectID, now float64) *cache.Descriptor {
	if *h.hook != nil {
		(*h.hook)()
	}
	return h.DCache.RecordAccess(id, now)
}

// faultRig is a depth-3 tree whose leaf route [leaf, mid, root] (links 1, 2,
// 4) is primed so that the next Get from leaf misses everywhere, is served by
// the origin at cost 7 and wants a copy at all three hops: a write has just
// invalidated the copies the warm-up placed at each level, and the
// descriptors left behind see strictly more traffic the higher they sit.
type faultRig struct {
	c               *Cluster
	inj             *fault.Injector
	leaf, mid, root model.NodeID
	midSeen         int64   // messages the injector has counted for mid
	atRoot          *func() // runs between the passes of a Get (see hookedDCache)
}

const faultObj, faultSize = model.ObjectID(1), int64(100)

func newFaultRig(t *testing.T) *faultRig {
	t.Helper()
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	leaves := h.ClientAttachPoints()
	route := h.Route(leaves[0], model.NoNode).Caches
	rig := &faultRig{inj: fault.New(1), leaf: route[0], mid: route[1], root: route[2], atRoot: new(func())}
	clk := &logicalClock{}
	first := true // nodes are built in ID order; the root is node 0
	c, err := NewCluster(Config{
		Network: h, CacheBytes: 10000, DCacheEntries: 100, Clock: clk.Now,
		Fault: rig.inj, EnableAudit: true, CoherencyMode: coherency.ModeCAS,
		DCacheFactory: func(capacity int) dcache.DCache {
			d := dcache.New(capacity)
			if first {
				first = false
				return hookedDCache{DCache: d, hook: rig.atRoot}
			}
			return d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if rig.root != 0 {
		t.Fatalf("root is node %d; the d-cache hook assumes node 0", rig.root)
	}
	rig.c = c
	// leaf, leaf (copy at leaf), its sibling (copy at mid), a cousin (copy
	// at root); then the write.
	for i, from := range []model.NodeID{leaves[0], leaves[0], leaves[1], leaves[2]} {
		clk.Set(float64(i))
		if _, err := c.Get(context.Background(), from, model.NoNode, faultObj, faultSize); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range route {
		if !c.node(id).st.Contains(faultObj) {
			t.Fatalf("warm-up left no copy at node %d", id)
		}
	}
	c.Invalidate(faultObj)
	clk.Set(4)
	rig.midSeen = 6 // both passes of the three warm-up requests routed through mid
	return rig
}

// holders lists the route's nodes that hold the object, top first.
func (r *faultRig) holders() []model.NodeID {
	out := []model.NodeID{}
	for _, id := range []model.NodeID{r.root, r.mid, r.leaf} {
		if r.c.aliveNode(id) && r.c.node(id).st.Contains(faultObj) {
			out = append(out, id)
		}
	}
	return out
}

// TestWalkFaults injects each fault verdict at the middle hop of the primed
// route, once on the way up and once on the way down, and pins the outcome
// the protocol documents for it (docs/PROTOCOL.md "Liveness").
func TestWalkFaults(t *testing.T) {
	const delay = 2 * time.Millisecond
	type want struct {
		res     Result
		stats   Stats // deltas over the one faulted Get
		holders []model.NodeID
		failed  []model.NodeID
		delays  int64
	}
	origin := func(placed ...model.NodeID) Result {
		return Result{ServedBy: model.NoNode, Cost: 7, Hops: 3, Placed: placed, ServedGen: 1}
	}
	degraded := Result{ServedBy: model.NoNode, Cost: 7, Hops: 3, Degraded: true, ServedGen: 1}
	cases := []struct {
		name string
		// arm configures the injector before the Get; between, when set,
		// runs after the upstream pass's last delivery.
		arm     func(r *faultRig)
		between func(r *faultRig)
		want    func(r *faultRig) want
	}{
		{
			name: "none",
			arm:  func(r *faultRig) {},
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.mid, r.leaf),
					stats:   Stats{Requests: 1, Messages: 6, Inserts: 3},
					holders: []model.NodeID{r.root, r.mid, r.leaf}}
			},
		},
		{
			// The walk stops at mid: the leaf saw the request pass, nothing
			// else ran, the client goes to the origin.
			name: "drop/up",
			arm:  func(r *faultRig) { r.inj.WithDropEvery(r.inj.Stats().Messages + 2) },
			want: func(r *faultRig) want {
				return want{res: degraded,
					stats:   Stats{Requests: 1, Messages: 1, FaultDrops: 1, OriginFallbacks: 1},
					holders: []model.NodeID{}}
			},
		},
		{
			// The response is lost below the root: the root keeps the copy it
			// was told to take, mid and leaf are untouched.
			name: "drop/down",
			arm:  func(r *faultRig) { r.inj.WithDropEvery(r.inj.Stats().Messages + 5) },
			want: func(r *faultRig) want {
				return want{res: degraded,
					stats:   Stats{Requests: 1, Messages: 4, Inserts: 1, FaultDrops: 1, OriginFallbacks: 1},
					holders: []model.NodeID{r.root}}
			},
		},
		{
			// Mid dies on the request: both passes route around it, its link
			// stays in the cost, and the DP places without it.
			name: "crash/up",
			arm:  func(r *faultRig) { r.inj.WithCrashOn(int64(r.mid), r.midSeen+1) },
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.leaf),
					stats:   Stats{Requests: 1, Messages: 4, Inserts: 2, RoutedAround: 2, Failures: 1},
					holders: []model.NodeID{r.root, r.leaf}, failed: []model.NodeID{r.mid}}
			},
		},
		{
			// Mid dies on the response: it was chosen but takes no copy; its
			// link folds into the leaf's miss penalty.
			name: "crash/down",
			arm:  func(r *faultRig) { r.inj.WithCrashOn(int64(r.mid), r.midSeen+2) },
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.leaf),
					stats:   Stats{Requests: 1, Messages: 5, Inserts: 2, RoutedAround: 1, Failures: 1},
					holders: []model.NodeID{r.root, r.leaf}, failed: []model.NodeID{r.mid}}
			},
		},
		{
			// Saturated for the request only: no candidate from mid, but the
			// response passes through it (a live hop that was not chosen).
			name:    "saturate/up",
			arm:     func(r *faultRig) { r.inj.SetSaturated(int64(r.mid), true) },
			between: func(r *faultRig) { r.inj.SetSaturated(int64(r.mid), false) },
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.leaf),
					stats:   Stats{Requests: 1, Messages: 5, Inserts: 2, RoutedAround: 1},
					holders: []model.NodeID{r.root, r.leaf}}
			},
		},
		{
			name:    "saturate/down",
			arm:     func(r *faultRig) {},
			between: func(r *faultRig) { r.inj.SetSaturated(int64(r.mid), true) },
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.leaf),
					stats:   Stats{Requests: 1, Messages: 5, Inserts: 2, RoutedAround: 1},
					holders: []model.NodeID{r.root, r.leaf}}
			},
		},
		{
			// A delay changes when, never what.
			name:    "delay/up",
			arm:     func(r *faultRig) { r.inj.WithDelay(1, delay) },
			between: func(r *faultRig) { r.inj.WithDelay(0, 0) },
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.mid, r.leaf),
					stats:   Stats{Requests: 1, Messages: 6, Inserts: 3},
					holders: []model.NodeID{r.root, r.mid, r.leaf}, delays: 3}
			},
		},
		{
			name:    "delay/down",
			arm:     func(r *faultRig) {},
			between: func(r *faultRig) { r.inj.WithDelay(1, delay) },
			want: func(r *faultRig) want {
				return want{res: origin(r.root, r.mid, r.leaf),
					stats:   Stats{Requests: 1, Messages: 6, Inserts: 3},
					holders: []model.NodeID{r.root, r.mid, r.leaf}, delays: 3}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newFaultRig(t)
			w := tc.want(r)
			tc.arm(r)
			if tc.between != nil {
				*r.atRoot = func() { tc.between(r) }
			}
			before := r.c.Stats()
			start := time.Now()
			got, err := r.c.Get(context.Background(), r.leaf, model.NoNode, faultObj, faultSize)
			elapsed := time.Since(start)
			*r.atRoot = nil
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, w.res) {
				t.Errorf("result %+v, want %+v", got, w.res)
			}
			if d := statsDelta(r.c.Stats(), before); d != w.stats {
				t.Errorf("stats delta %+v, want %+v", d, w.stats)
			}
			if h := r.holders(); !reflect.DeepEqual(h, w.holders) {
				t.Errorf("object held by %v, want %v", h, w.holders)
			}
			if f := r.c.Failed(); !reflect.DeepEqual(f, append([]model.NodeID{}, w.failed...)) {
				t.Errorf("failed nodes %v, want %v", f, w.failed)
			}
			if d := r.inj.Stats().Delays; d != w.delays || elapsed < time.Duration(w.delays)*delay {
				t.Errorf("%d delays in %v, want %d of %v each", d, elapsed, w.delays, delay)
			}
			// Cluster and per-node insert counters agree even when a walk is
			// abandoned half-way down.
			var nodeInserts int64
			for _, nm := range r.c.MetricsSnapshot().Nodes {
				nodeInserts += nm.Inserts
			}
			if total := r.c.Stats().Inserts; nodeInserts != total {
				t.Errorf("per-node inserts %d != cluster inserts %d", nodeInserts, total)
			}
			if v := r.c.Auditor().TotalViolations(); v != 0 {
				t.Errorf("%d audit violations", v)
			}
		})
	}
}

func statsDelta(after, before Stats) Stats {
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(before)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetInt(a.Field(i).Int() - b.Field(i).Int())
	}
	return after
}

// TestWalkFaultsDeterministic replays one request stream through two
// clusters whose injectors share a seed: with every fault verdict evaluated
// inline on the one goroutine issuing the Gets, results and counters must
// agree exactly.
func TestWalkFaultsDeterministic(t *testing.T) {
	run := func() ([]Result, Stats) {
		h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 3, BaseDelay: 1, Growth: 2})
		leaves := h.ClientAttachPoints()
		clk := &logicalClock{}
		inj := fault.New(42).WithDrop(0.03).WithDelay(0.01, time.Microsecond).
			WithCrashOn(int64(h.Route(leaves[0], model.NoNode).Caches[1]), 300)
		c, err := NewCluster(Config{Network: h, CacheBytes: 4096, DCacheEntries: 64, Clock: clk.Now,
			Fault: inj, EnableAudit: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r := rand.New(rand.NewSource(7))
		out := make([]Result, 0, 2000)
		for i := 0; i < 2000; i++ {
			clk.Set(float64(i))
			if i%500 == 250 {
				inj.SetSaturated(0, i%1000 == 250) // the root, on and off
			}
			res, err := c.Get(context.Background(), leaves[r.Intn(len(leaves))], model.NoNode,
				model.ObjectID(r.Intn(60)), int64(100+r.Intn(400)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		if v := c.Auditor().TotalViolations(); v != 0 {
			t.Fatalf("%d audit violations", v)
		}
		return out, c.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("results diverged between two runs on the same seed")
	}
	if s1.FaultDrops == 0 || s1.Failures != 1 || s1.RoutedAround == 0 || s1.Inserts == 0 {
		t.Fatalf("vacuous schedule: %+v", s1)
	}
}

// TestNewClusterStartsNoGoroutines pins the single data plane's footprint:
// building the 40-node default tree starts nothing.
func TestNewClusterStartsNoGoroutines(t *testing.T) {
	h := topology.GenerateTree(topology.DefaultTreeConfig())
	if h.NumCaches() != 40 {
		t.Fatalf("default tree has %d caches, want 40", h.NumCaches())
	}
	before := goruntime.NumGoroutine()
	c, err := NewCluster(Config{Network: h, CacheBytes: 1 << 16, DCacheEntries: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Stragglers of earlier tests may still be exiting, so the count can
	// only be required not to grow.
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("NewCluster started %d goroutines", after-before)
	}
}

// TestGetHonoursContext covers the two places a Get can observe its context:
// on entry, before the request is counted, and while the walk waits out an
// injected delay.
func TestGetHonoursContext(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 2, Fanout: 2, BaseDelay: 1, Growth: 2})
	leaf := h.ClientAttachPoints()[0]
	inj := fault.New(1)
	c, err := NewCluster(Config{Network: h, CacheBytes: 1000, DCacheEntries: 10, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(done, leaf, model.NoNode, 1, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get on a cancelled context: err = %v", err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("cancelled-on-entry Get left a trace: %+v", st)
	}

	inj.WithDelay(1, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, leaf, model.NoNode, 1, 10)
		errc <- err
	}()
	for inj.Stats().Delays == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get cancelled mid-delay: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get did not return after its context was cancelled during an injected delay")
	}
	// The request was counted, its first message never arrived, and it is
	// neither a hit nor an origin fallback.
	if st := c.Stats(); st != (Stats{Requests: 1}) {
		t.Fatalf("stats after mid-delay cancel: %+v", st)
	}
}
