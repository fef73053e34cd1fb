// Package cascade_test benchmarks regenerate the paper's evaluation
// artifacts: one benchmark per table and figure (sub-benchmarks per scheme
// and cache size), each reporting the figure's metric via b.ReportMetric,
// plus ablation benches for the design choices called out in DESIGN.md.
//
// The full multi-size series the paper plots are printed by
// `go run ./cmd/cascadesim -exp all`; these benches reproduce each figure's
// series at benchmark scale and record wall-clock cost per simulation.
package cascade_test

import (
	"context"
	"math/rand"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cascade"
)

// benchScale keeps every cell under ~a second while preserving the paper's
// qualitative shape.
var benchTrace = cascade.TraceConfig{
	Objects:  4000,
	Servers:  80,
	Clients:  400,
	Requests: 80000,
	Duration: 4 * 3600,
	Seed:     13,
}

var (
	workloadOnce sync.Once
	benchGen     *cascade.Generator
	benchEnRoute cascade.Network
	benchTree    cascade.Network
)

func setup() {
	workloadOnce.Do(func() {
		benchGen = cascade.NewGenerator(benchTrace)
		benchEnRoute = cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(13)))
		benchTree = cascade.GenerateTree(cascade.DefaultTreeConfig())
	})
}

// runCell replays the benchmark workload once through a scheme and returns
// the run summary.
func runCell(b *testing.B, s cascade.Scheme, net cascade.Network, size float64) cascade.Summary {
	b.Helper()
	sim, err := cascade.NewSimulator(cascade.SimConfig{
		Scheme:            s,
		Network:           net,
		Catalog:           benchGen.Catalog(),
		RelativeCacheSize: size,
		Seed:              13,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchGen.Reset()
	sum, _ := sim.Run(benchGen, benchGen.Len()/2)
	return sum
}

// benchFigure runs one figure's series: every scheme at representative
// cache sizes, reporting the figure's metric.
func benchFigure(b *testing.B, figID string, net func() cascade.Network) {
	setup()
	fig, ok := cascade.FigureByID(figID)
	if !ok {
		b.Fatalf("unknown figure %s", figID)
	}
	for _, size := range []float64{0.01, 0.1} {
		for _, name := range []string{"LRU", "MODULO(4)", "LNC-R", "COORD"} {
			name, size := name, size
			b.Run(sizeSchemeLabel(size, name), func(b *testing.B) {
				b.ReportAllocs()
				var sum cascade.Summary
				for i := 0; i < b.N; i++ {
					s, err := cascade.NewScheme(name)
					if err != nil {
						b.Fatal(err)
					}
					sum = runCell(b, s, net(), size)
				}
				b.ReportMetric(fig.Extract(sum), metricUnit(figID))
			})
		}
	}
}

func sizeSchemeLabel(size float64, scheme string) string {
	if size == 0.01 {
		return "size=1%/" + scheme
	}
	return "size=10%/" + scheme
}

func metricUnit(figID string) string {
	switch figID {
	case "fig6a", "fig9a":
		return "latency_s"
	case "fig6b", "fig9b":
		return "resp_s_per_KB"
	case "fig7a", "fig10a":
		return "byte_hit_ratio"
	case "fig7b":
		return "byte_hops"
	case "fig8a":
		return "hops"
	case "fig8b", "fig10b":
		return "load_B_per_req"
	}
	return "value"
}

// BenchmarkTable1Topology regenerates Table 1: topology generation plus
// characteristic measurement.
func BenchmarkTable1Topology(b *testing.B) {
	d := cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(13))).Describe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(13))).Describe()
	}
	b.ReportMetric(float64(d.Links), "links")
	b.ReportMetric(d.AvgWANDelay*1000, "wan_delay_ms")
	b.ReportMetric(d.AvgMANDelay*1000, "man_delay_ms")
	b.ReportMetric(d.AvgRouteHops, "route_hops")
}

// Figures 6–8: en-route architecture.

func BenchmarkFig6aEnRouteLatency(b *testing.B) {
	benchFigure(b, "fig6a", func() cascade.Network { return benchEnRoute })
}

func BenchmarkFig6bEnRouteResponseRatio(b *testing.B) {
	benchFigure(b, "fig6b", func() cascade.Network { return benchEnRoute })
}

func BenchmarkFig7aEnRouteByteHitRatio(b *testing.B) {
	benchFigure(b, "fig7a", func() cascade.Network { return benchEnRoute })
}

func BenchmarkFig7bEnRouteTraffic(b *testing.B) {
	benchFigure(b, "fig7b", func() cascade.Network { return benchEnRoute })
}

func BenchmarkFig8aEnRouteHops(b *testing.B) {
	benchFigure(b, "fig8a", func() cascade.Network { return benchEnRoute })
}

func BenchmarkFig8bEnRouteCacheLoad(b *testing.B) {
	benchFigure(b, "fig8b", func() cascade.Network { return benchEnRoute })
}

// Figures 9–10: hierarchical architecture.

func BenchmarkFig9aHierarchyLatency(b *testing.B) {
	benchFigure(b, "fig9a", func() cascade.Network { return benchTree })
}

func BenchmarkFig9bHierarchyResponseRatio(b *testing.B) {
	benchFigure(b, "fig9b", func() cascade.Network { return benchTree })
}

func BenchmarkFig10aHierarchyByteHitRatio(b *testing.B) {
	benchFigure(b, "fig10a", func() cascade.Network { return benchTree })
}

func BenchmarkFig10bHierarchyCacheLoad(b *testing.B) {
	benchFigure(b, "fig10b", func() cascade.Network { return benchTree })
}

// Ablations.

// BenchmarkAblationModuloRadius reproduces the §4.1/§4.2 radius
// sensitivity: latency per cache radius on both architectures.
func BenchmarkAblationModuloRadius(b *testing.B) {
	setup()
	for _, arch := range []struct {
		name string
		net  cascade.Network
	}{{"enroute", benchEnRoute}, {"hierarchy", benchTree}} {
		for _, radius := range []int{1, 2, 4, 6} {
			arch, radius := arch, radius
			b.Run(arch.name+"/radius="+strconv.Itoa(radius), func(b *testing.B) {
				var sum cascade.Summary
				for i := 0; i < b.N; i++ {
					sum = runCell(b, cascade.NewModulo(radius), arch.net, 0.01)
				}
				b.ReportMetric(sum.AvgLatency, "latency_s")
			})
		}
	}
}

// BenchmarkAblationDCacheFactor reproduces the §3.2 d-cache sizing choice
// (the paper settles on 3× the main cache's object count).
func BenchmarkAblationDCacheFactor(b *testing.B) {
	setup()
	for _, factor := range []float64{0.5, 1, 3, 10} {
		factor := factor
		b.Run("factor="+strconv.FormatFloat(factor, 'g', -1, 64), func(b *testing.B) {
			var sum cascade.Summary
			for i := 0; i < b.N; i++ {
				sim, err := cascade.NewSimulator(cascade.SimConfig{
					Scheme:            cascade.NewCoordinated(),
					Network:           benchEnRoute,
					Catalog:           benchGen.Catalog(),
					RelativeCacheSize: 0.01,
					DCacheFactor:      factor,
					Seed:              13,
				})
				if err != nil {
					b.Fatal(err)
				}
				benchGen.Reset()
				sum, _ = sim.Run(benchGen, benchGen.Len()/2)
			}
			b.ReportMetric(sum.AvgLatency, "latency_s")
		})
	}
}

// BenchmarkAblationMonotoneClamp measures the effect of restoring the
// monotone frequency profile before the DP (DESIGN.md design decision).
func BenchmarkAblationMonotoneClamp(b *testing.B) {
	setup()
	for _, clamp := range []bool{true, false} {
		clamp := clamp
		name := "clamp=off"
		if clamp {
			name = "clamp=on"
		}
		b.Run(name, func(b *testing.B) {
			var sum cascade.Summary
			for i := 0; i < b.N; i++ {
				s := cascade.NewCoordinated()
				s.SetClampMonotone(clamp)
				sum = runCell(b, s, benchEnRoute, 0.01)
			}
			b.ReportMetric(sum.AvgLatency, "latency_s")
		})
	}
}

// BenchmarkAblationDCachePolicy compares the two §2.4 d-cache
// organizations inside the coordinated scheme: the heap LFU against the
// O(1) LRU stacks.
func BenchmarkAblationDCachePolicy(b *testing.B) {
	setup()
	for _, tc := range []struct {
		name string
		fac  cascade.DCacheFactory
	}{{"heap-lfu", cascade.DCacheLFU}, {"lru-stacks", cascade.DCacheLRUStacks}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var sum cascade.Summary
			for i := 0; i < b.N; i++ {
				s := cascade.NewCoordinated()
				s.SetDCacheFactory(tc.fac)
				sum = runCell(b, s, benchEnRoute, 0.01)
			}
			b.ReportMetric(sum.AvgLatency, "latency_s")
			b.ReportMetric(sum.ByteHitRatio, "byte_hit_ratio")
		})
	}
}

// BenchmarkAblationExtraBaselines runs the beyond-paper baselines (LFU,
// GDS) next to COORD for context.
func BenchmarkAblationExtraBaselines(b *testing.B) {
	setup()
	for _, name := range []string{"LFU", "GDS", "COORD"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var sum cascade.Summary
			for i := 0; i < b.N; i++ {
				s, err := cascade.NewScheme(name)
				if err != nil {
					b.Fatal(err)
				}
				sum = runCell(b, s, benchEnRoute, 0.01)
			}
			b.ReportMetric(sum.AvgLatency, "latency_s")
		})
	}
}

// BenchmarkOverheadPiggyback quantifies the coordinated protocol's
// communication overhead (§2.3–2.4).
func BenchmarkOverheadPiggyback(b *testing.B) {
	setup()
	var sum cascade.Summary
	for i := 0; i < b.N; i++ {
		sum = runCell(b, cascade.NewCoordinated(), benchEnRoute, 0.01)
	}
	b.ReportMetric(sum.AvgPiggyback, "piggyback_B_per_req")
	b.ReportMetric(100*sum.AvgPiggyback/sum.AvgSize, "overhead_pct")
}

// BenchmarkSimulatorThroughput measures raw replay speed: requests per
// second through the coordinated scheme on the en-route network.
func BenchmarkSimulatorThroughput(b *testing.B) { simulatorThroughput(b, 3) }

// simulatorThroughput is BenchmarkSimulatorThroughput with descriptors
// recording the last windowK reference times.
func simulatorThroughput(b *testing.B, windowK int) {
	setup()
	sch := cascade.NewCoordinated()
	sch.SetWindowK(windowK)
	sim, err := cascade.NewSimulator(cascade.SimConfig{
		Scheme:            sch,
		Network:           benchEnRoute,
		Catalog:           benchGen.Catalog(),
		RelativeCacheSize: 0.01,
		Seed:              13,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchGen.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		req, ok := benchGen.Next()
		if !ok {
			benchGen.Reset()
			req, _ = benchGen.Next()
		}
		sim.Process(req)
		n++
	}
}

// BenchmarkClusterThroughput measures the live cluster runtime: requests
// per second through the walk with 8 concurrent clients.
func BenchmarkClusterThroughput(b *testing.B) {
	setup()
	cluster, err := cascade.NewCluster(cascade.ClusterConfig{
		Network:       benchTree,
		CacheBytes:    1 << 22,
		DCacheEntries: 2000,
		AvgObjectSize: benchGen.Catalog().AvgSize(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	leaves := benchTree.ClientAttachPoints()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(99))
		i := 0
		for pb.Next() {
			leaf := leaves[r.Intn(len(leaves))]
			obj := cascade.ObjectID(r.Intn(2000))
			if _, err := cluster.Get(context.Background(), leaf, cascade.NoNode, obj, 4096); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	st := cluster.Stats()
	if st.Requests > 0 {
		b.ReportMetric(float64(st.Messages)/float64(st.Requests), "msgs_per_req")
		b.ReportMetric(float64(st.CacheHits)/float64(st.Requests), "hit_ratio")
	}
}

// TestHotPathAllocs pins the machine-independent half of the two throughput
// benchmarks: the simulator's replay loop and the cluster's walk allocate
// nothing per request (the simulator a bounded few bytes, amortised
// bookkeeping), on any box at any load. The simulator is held to that at
// K = 8 too, where every descriptor's window continues in an overflow ring:
// recycled descriptors keep theirs. Timings are judged elsewhere, on paired
// bench/ runs (docs/PERFORMANCE.md).
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three one-second benchmarks")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				// The detector makes sync.Pool drop entries at random, so
				// the cluster walk allocates; `make allocs` runs this
				// without it.
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
	for _, k := range []int{3, 8} {
		sim := testing.Benchmark(func(b *testing.B) { simulatorThroughput(b, k) })
		if a, b := sim.AllocsPerOp(), sim.AllocedBytesPerOp(); a != 0 || b > 64 {
			t.Errorf("simulator replay at K = %d: %d allocs/op, %d B/op over %d ops; want 0 and <= 64", k, a, b, sim.N)
		}
	}
	cl := testing.Benchmark(BenchmarkClusterThroughput)
	if a := cl.AllocsPerOp(); a != 0 {
		t.Errorf("BenchmarkClusterThroughput: %d allocs/op over %d ops; want 0", a, cl.N)
	}
}

// BenchmarkClusterThroughputSpans is BenchmarkClusterThroughput with span
// tracing on at a production-style 1% tail-sampling rate. Compare against
// the plain variant: the acceptance bar for the tracing subsystem is a
// regression under 5%.
func BenchmarkClusterThroughputSpans(b *testing.B) {
	setup()
	cluster, err := cascade.NewCluster(cascade.ClusterConfig{
		Network:       benchTree,
		CacheBytes:    1 << 22,
		DCacheEntries: 2000,
		AvgObjectSize: benchGen.Catalog().AvgSize(),
		SpanCapacity:  512,
		SpanSample:    0.01,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	leaves := benchTree.ClientAttachPoints()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(99))
		for pb.Next() {
			leaf := leaves[r.Intn(len(leaves))]
			obj := cascade.ObjectID(r.Intn(2000))
			if _, err := cluster.Get(context.Background(), leaf, cascade.NoNode, obj, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := cluster.Stats()
	if st.Requests > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.Requests), "hit_ratio")
	}
}

// BenchmarkClusterThroughputParallel measures the sharded data plane:
// requests execute synchronously on the caller's goroutine against 8-way
// sharded node state, so concurrent clients on different objects never
// share a lock. Compare against the single-shard
// BenchmarkClusterThroughput, interleaved on the same box.
func BenchmarkClusterThroughputParallel(b *testing.B) {
	setup()
	cluster, err := cascade.NewCluster(cascade.ClusterConfig{
		Network:       benchTree,
		CacheBytes:    1 << 22,
		DCacheEntries: 2000,
		AvgObjectSize: benchGen.Catalog().AvgSize(),
		Shards:        8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	leaves := benchTree.ClientAttachPoints()
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	var seed int64
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(99 + atomic.AddInt64(&seed, 1)))
		for pb.Next() {
			leaf := leaves[r.Intn(len(leaves))]
			obj := cascade.ObjectID(r.Intn(2000))
			if _, err := cluster.Get(context.Background(), leaf, cascade.NoNode, obj, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := cluster.Stats()
	if st.Requests > 0 {
		b.ReportMetric(float64(st.CacheHits)/float64(st.Requests), "hit_ratio")
	}
}

// BenchmarkAnalysisCheLRU measures the fixed-point solve for a 100k-object
// catalog (what an operator would run interactively for capacity planning).
func BenchmarkAnalysisCheLRU(b *testing.B) {
	objs := make([]cascade.AnalysisObject, 100000)
	for i := range objs {
		objs[i] = cascade.AnalysisObject{Rate: 1 / float64(i+1), Size: int64(1000 + i%9000)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var p cascade.AnalysisPrediction
	for i := 0; i < b.N; i++ {
		var err error
		p, err = cascade.CheLRUHitRatio(objs, 50<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.HitRatio, "hit_ratio")
}
