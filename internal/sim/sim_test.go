package sim

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cascade/internal/coherency"

	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

func workload() *trace.Generator {
	return trace.NewGenerator(trace.Config{
		Objects:  800,
		Servers:  30,
		Clients:  100,
		Requests: 30000,
		Duration: 7200,
		Seed:     11,
	})
}

func enroute() topology.Network {
	return topology.GenerateTiers(topology.TiersConfig{}, rand.New(rand.NewSource(5)))
}

func runOne(t *testing.T, s scheme.Scheme, net topology.Network, rel float64) metrics.Summary {
	t.Helper()
	g := workload()
	simr, err := New(Config{
		Scheme:            s,
		Network:           net,
		Catalog:           g.Catalog(),
		RelativeCacheSize: rel,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	summary, replayed := simr.Run(g, g.Len()/2)
	if replayed != g.Len() {
		t.Fatalf("replayed %d, want %d", replayed, g.Len())
	}
	return summary
}

func TestNewValidation(t *testing.T) {
	g := workload()
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Scheme: scheme.NewLRU(), Network: enroute(), Catalog: g.Catalog(), RelativeCacheSize: 2}); err == nil {
		t.Fatal("relative size 2 accepted")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	for _, s := range []scheme.Scheme{scheme.NewLRU(), scheme.NewModulo(4), scheme.NewLNCR(), scheme.NewCoordinated()} {
		sum := runOne(t, s, enroute(), 0.01)
		if sum.Requests != 15000 {
			t.Fatalf("%s: recorded %d requests", s.Name(), sum.Requests)
		}
		if sum.ByteHitRatio < 0 || sum.ByteHitRatio > 1 || sum.HitRatio < 0 || sum.HitRatio > 1 {
			t.Fatalf("%s: hit ratios out of range: %+v", s.Name(), sum)
		}
		if sum.AvgLatency < 0 || sum.AvgHops < 0 {
			t.Fatalf("%s: negative metrics: %+v", s.Name(), sum)
		}
		if sum.ByteHitRatio == 0 {
			t.Fatalf("%s: nothing was ever served from cache", s.Name())
		}
		if sum.AvgLoad < sum.AvgReadLoad ||
			math.Abs(sum.AvgLoad-(sum.AvgReadLoad+sum.AvgWriteLoad)) > 1e-6*sum.AvgLoad {
			t.Fatalf("%s: load accounting: %+v", s.Name(), sum)
		}
	}
}

func TestZeroCacheSizeAllMisses(t *testing.T) {
	sum := runOne(t, scheme.NewLRU(), enroute(), 0)
	if sum.HitRatio != 0 || sum.ByteHitRatio != 0 || sum.AvgReadLoad != 0 || sum.AvgWriteLoad != 0 {
		t.Fatalf("zero cache: %+v", sum)
	}
	if sum.AvgLatency <= 0 {
		t.Fatal("zero cache should still pay origin latency")
	}
}

func TestLargerCacheImprovesHitRatio(t *testing.T) {
	small := runOne(t, scheme.NewLRU(), enroute(), 0.003)
	large := runOne(t, scheme.NewLRU(), enroute(), 0.1)
	if large.ByteHitRatio <= small.ByteHitRatio {
		t.Fatalf("byte hit ratio did not improve: %v → %v", small.ByteHitRatio, large.ByteHitRatio)
	}
	if large.AvgLatency >= small.AvgLatency {
		t.Fatalf("latency did not improve: %v → %v", small.AvgLatency, large.AvgLatency)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runOne(t, scheme.NewCoordinated(), enroute(), 0.01)
	b := runOne(t, scheme.NewCoordinated(), enroute(), 0.01)
	if a != b {
		t.Fatalf("same seeds, different summaries:\n%+v\n%+v", a, b)
	}
}

func TestHierarchicalRun(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{})
	sum := runOne(t, scheme.NewCoordinated(), h, 0.03)
	if sum.ByteHitRatio <= 0 {
		t.Fatalf("hierarchy run produced no hits: %+v", sum)
	}
	// Max possible latency for an average-size object is the full path:
	// d(1+g+g²+g³) = 1.248s; sizes vary so allow slack, but the mean
	// must sit well below the max for a useful cache.
	if sum.AvgLatency >= 1.248 {
		t.Fatalf("avg latency %v not reduced below origin cost", sum.AvgLatency)
	}
}

func TestAttachmentsStableAndValid(t *testing.T) {
	g := workload()
	net := enroute()
	s1, err := New(Config{Scheme: scheme.NewLRU(), Network: net, Catalog: g.Catalog(), RelativeCacheSize: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := New(Config{Scheme: scheme.NewLRU(), Network: net, Catalog: g.Catalog(), RelativeCacheSize: 0.01, Seed: 3})
	valid := map[model.NodeID]bool{}
	for _, n := range net.ClientAttachPoints() {
		valid[n] = true
	}
	for c := 0; c < g.Catalog().NumClients; c++ {
		n := s1.ClientNode(model.ClientID(c))
		if !valid[n] {
			t.Fatalf("client %d attached to non-MAN node %d", c, n)
		}
		if n != s2.ClientNode(model.ClientID(c)) {
			t.Fatal("attachment not deterministic")
		}
	}
	for v := 0; v < g.Catalog().NumServers; v++ {
		if !valid[s1.ServerNode(model.ServerID(v))] {
			t.Fatalf("server %d attached to non-MAN node", v)
		}
	}
}

func TestReaderSource(t *testing.T) {
	cfg := trace.Config{Objects: 50, Servers: 5, Clients: 10, Requests: 200, Duration: 100, Seed: 2}
	g := trace.NewGenerator(cfg)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, g.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := g.Next()
		if !ok {
			break
		}
		w.WriteRequest(req)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := &ReaderSource{R: r}
	simr, err := New(Config{
		Scheme:            scheme.NewLRU(),
		Network:           enroute(),
		Catalog:           r.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, replayed := simr.Run(src, 100)
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if replayed != 200 || sum.Requests != 100 {
		t.Fatalf("replayed=%d recorded=%d", replayed, sum.Requests)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	g := workload()
	simr, err := New(Config{
		Scheme:            scheme.NewLRU(),
		Network:           enroute(),
		Catalog:           g.Catalog(),
		RelativeCacheSize: 0.01,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := simr.Run(g, g.Len()) // warm the entire trace away
	if sum.Requests != 0 {
		t.Fatalf("recorded %d requests despite full warmup", sum.Requests)
	}
}

func TestCostModelsLinkCosts(t *testing.T) {
	route := topology.Route{
		Caches: []model.NodeID{0, 1, 2},
		UpCost: []float64{0.1, 0.2, 0}, // en-route: co-located origin
	}
	buf := make([]float64, 3)

	CostLatency.linkCosts(route, 2000, 1000, buf)
	for i, want := range []float64{0.2, 0.4, 0} {
		if math.Abs(buf[i]-want) > 1e-12 {
			t.Fatalf("latency cost[%d] = %v, want %v", i, buf[i], want)
		}
	}
	CostBandwidth.linkCosts(route, 2000, 1000, buf)
	for i, want := range []float64{2000, 2000, 0} {
		if buf[i] != want {
			t.Fatalf("bandwidth cost[%d] = %v, want %v", i, buf[i], want)
		}
	}
	CostHops.linkCosts(route, 2000, 1000, buf)
	for i, want := range []float64{1, 1, 0} {
		if buf[i] != want {
			t.Fatalf("hops cost[%d] = %v, want %v", i, buf[i], want)
		}
	}

	// Hierarchy: the origin link is real and must be charged.
	treeRoute := topology.Route{
		Caches:     []model.NodeID{0, 1},
		UpCost:     []float64{0.1, 0.5},
		OriginLink: true,
	}
	buf2 := buf[:2]
	CostBandwidth.linkCosts(treeRoute, 100, 1000, buf2)
	if buf2[1] != 100 {
		t.Fatalf("hierarchy origin link not charged: %v", buf2)
	}
	CostHops.linkCosts(treeRoute, 100, 1000, buf2)
	if buf2[1] != 1 {
		t.Fatalf("hierarchy origin hop not charged: %v", buf2)
	}
}

func TestCostModelString(t *testing.T) {
	for m, want := range map[CostModel]string{
		CostLatency: "latency", CostBandwidth: "bandwidth", CostHops: "hops",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestCostModelLatencyMetricIndependent(t *testing.T) {
	// Whatever the schemes optimize, the latency metric must be derived
	// from real delays: with CostHops the scheme sees hop costs but the
	// reported latency must stay in real seconds (comparable magnitude
	// to the latency-model run, not hop counts).
	g := workload()
	run := func(m CostModel) metrics.Summary {
		simr, err := New(Config{
			Scheme:            scheme.NewLRU(),
			Network:           enroute(),
			Catalog:           g.Catalog(),
			RelativeCacheSize: 0.01,
			Seed:              3,
			CostModel:         m,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Reset()
		sum, _ := simr.Run(g, g.Len()/2)
		return sum
	}
	lat := run(CostLatency)
	hops := run(CostHops)
	// LRU ignores costs entirely, so both runs behave identically and
	// the latency metric must match exactly.
	if math.Abs(lat.AvgLatency-hops.AvgLatency) > 1e-9 {
		t.Fatalf("latency metric depends on cost model for LRU: %v vs %v",
			lat.AvgLatency, hops.AvgLatency)
	}
}

func TestTrackNodes(t *testing.T) {
	g := workload()
	simr, err := New(Config{
		Scheme:            scheme.NewLRU(),
		Network:           enroute(),
		Catalog:           g.Catalog(),
		RelativeCacheSize: 0.02,
		Seed:              3,
		TrackNodes:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	sum, _ := simr.Run(g, 0)
	stats := simr.NodeStats()
	if len(stats) == 0 {
		t.Fatal("no per-node stats collected")
	}
	var hits, hitBytes, inserts int64
	for _, st := range stats {
		hits += st.Hits
		hitBytes += st.HitBytes
		inserts += st.Inserts
		if st.Hits < 0 || st.HitBytes < 0 {
			t.Fatalf("negative stats: %+v", st)
		}
	}
	// Per-node totals must reconcile with the summary (no warmup here).
	if hits != sum.Requests*int64(sum.HitRatio*float64(sum.Requests))/sum.Requests && hits == 0 {
		t.Fatal("no hits tracked")
	}
	wantHits := int64(math.Round(sum.HitRatio * float64(sum.Requests)))
	if hits != wantHits {
		t.Fatalf("per-node hits %d != summary hits %d", hits, wantHits)
	}
	wantInserts := int64(math.Round(sum.AvgInserts * float64(sum.Requests)))
	if inserts != wantInserts {
		t.Fatalf("per-node inserts %d != summary inserts %d", inserts, wantInserts)
	}
}

func TestCoherencyIntegration(t *testing.T) {
	// PSI: piggybacked invalidations bound staleness but cannot eliminate
	// it — aggressive updates must still produce some stale serves.
	g := workload()
	simr, err := New(Config{
		Scheme:            scheme.NewCoordinated(),
		Network:           enroute(),
		Catalog:           g.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              3,
		Coherency: &coherency.Config{
			Mode:                 coherency.ModePSI,
			ObjectUpdateInterval: 30, // aggressive: ~full-universe churn
			Seed:                 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	sum, _ := simr.Run(g, g.Len()/2)
	if simr.Updates() == 0 {
		t.Fatal("no updates generated")
	}
	if sum.StaleHitRatio <= 0 {
		t.Fatal("aggressive updates produced no stale hits")
	}

	// TTL exercises the refetch path: expired copies demote to a miss.
	g2 := workload()
	simr2, err := New(Config{
		Scheme:            scheme.NewCoordinated(),
		Network:           enroute(),
		Catalog:           g2.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              3,
		Coherency: &coherency.Config{
			Mode:                 coherency.ModeTTL,
			ObjectUpdateInterval: 30,
			Lifetime:             100,
			Seed:                 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g2.Reset()
	sumTTL, _ := simr2.Run(g2, g2.Len()/2)
	if sumTTL.RefetchRatio <= 0 {
		t.Fatal("TTL never refetched")
	}
	if sumTTL.StaleHitRatio < 0 || sumTTL.StaleHitRatio > 1 {
		t.Fatalf("stale ratio %v", sumTTL.StaleHitRatio)
	}

	// CAS: read floors make stale serves structurally impossible.
	g3 := workload()
	simr3, err := New(Config{
		Scheme:            scheme.NewCoordinated(),
		Network:           enroute(),
		Catalog:           g3.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              3,
		Coherency: &coherency.Config{
			Mode:                 coherency.ModeCAS,
			ObjectUpdateInterval: 30,
			Seed:                 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g3.Reset()
	sumCAS, _ := simr3.Run(g3, g3.Len()/2)
	if sumCAS.StaleHitRatio != 0 {
		t.Fatalf("CAS served stale: ratio %v", sumCAS.StaleHitRatio)
	}

	// Baselines cannot carry coherency: configuring one must error.
	g4 := workload()
	if _, err := New(Config{
		Scheme:            scheme.NewLRU(),
		Network:           enroute(),
		Catalog:           g4.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              3,
		Coherency:         &coherency.Config{Mode: coherency.ModeTTL},
	}); err == nil {
		t.Fatal("LRU accepted a coherency config")
	}
}

func TestRunTimeline(t *testing.T) {
	g := workload()
	simr, err := New(Config{
		Scheme:            scheme.NewLRU(),
		Network:           enroute(),
		Catalog:           g.Catalog(),
		RelativeCacheSize: 0.1,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	windows := simr.RunTimeline(g, 600)
	if len(windows) < 10 { // 7200s trace / 600s windows
		t.Fatalf("windows = %d", len(windows))
	}
	var total int64
	for _, w := range windows {
		total += w.Summary.Requests
	}
	if total != int64(g.Len()) {
		t.Fatalf("timeline covered %d requests, want %d", total, g.Len())
	}
	// Warm-up effect: the first window's latency exceeds the mean of the
	// second half of the trace.
	var tail float64
	half := windows[len(windows)/2:]
	for _, w := range half {
		tail += w.Summary.AvgLatency
	}
	tail /= float64(len(half))
	if windows[0].Summary.AvgLatency <= tail {
		t.Fatalf("no warm-up visible: first %v, steady %v",
			windows[0].Summary.AvgLatency, tail)
	}
}

func TestReaderSourceError(t *testing.T) {
	in := "# cascade-trace v1 servers=1 clients=1\nO 0 100 0\nR 1.0 0 0\nR junk\n"
	r, err := trace.NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	src := &ReaderSource{R: r}
	if _, ok := src.Next(); !ok {
		t.Fatal("first request should stream")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("malformed line streamed")
	}
	if src.Err() == nil {
		t.Fatal("error not surfaced")
	}
}

// TestAllSchemesUnderCheckerFullSim replays a full simulation with every
// scheme wrapped in the protocol invariant checker, on both architectures.
func TestAllSchemesUnderCheckerFullSim(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sim checker run is slow")
	}
	nets := map[string]topology.Network{
		"enroute":   enroute(),
		"hierarchy": topology.GenerateTree(topology.TreeConfig{}),
	}
	for archName, net := range nets {
		for _, name := range scheme.Names() {
			name := name
			t.Run(archName+"/"+name, func(t *testing.T) {
				inner, err := scheme.New(name)
				if err != nil {
					t.Fatal(err)
				}
				g := workload()
				simr, err := New(Config{
					Scheme:            scheme.NewChecker(inner),
					Network:           net,
					Catalog:           g.Catalog(),
					RelativeCacheSize: 0.01,
					Seed:              3,
				})
				if err != nil {
					t.Fatal(err)
				}
				g.Reset()
				// The checker panics on any protocol violation.
				simr.Run(g, g.Len()/2)
			})
		}
	}
}

// TestDescriptorPoolBounded replays a trace through the coordinated scheme
// and holds its shared descriptor pool to the summed capacity of the
// d-caches it serves after every request. A hop that passes an unknown
// object through a full d-cache reuses that d-cache's own victim, so the
// pool only collects what demotions into full d-caches free and spends it
// where a d-cache still has room.
func TestDescriptorPoolBounded(t *testing.T) {
	g := workload()
	net := enroute()
	sch := scheme.NewCoordinated()
	simr, err := New(Config{Scheme: sch, Network: net, Catalog: g.Catalog(), RelativeCacheSize: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	capacity := 0
	for n := 0; n < net.NumCaches(); n++ {
		capacity += sch.DCache(model.NodeID(n)).Capacity()
	}
	peak := 0
	for {
		req, ok := g.Next()
		if !ok {
			break
		}
		simr.Process(req)
		peak = max(peak, sch.PooledDescriptors())
	}
	if peak == 0 || peak > capacity {
		t.Fatalf("descriptor pool peaked at %d; want 1 … %d, the d-caches' capacity", peak, capacity)
	}
	t.Logf("pool peak %d of %d d-cache entries", peak, capacity)
}
