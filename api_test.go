package cascade_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"cascade"
)

// These tests exercise the public facade exactly as a downstream user
// would: everything goes through package cascade, nothing through
// internal/*.

func TestAPIPlacementOptimizer(t *testing.T) {
	path := []cascade.PathNode{
		{Freq: 5, MissPenalty: 1, CostLoss: 10},
		{Freq: 2, MissPenalty: 3, CostLoss: 0.5},
	}
	p := cascade.OptimizePlacement(path)
	if len(p.Indices) != 1 || p.Indices[0] != 1 {
		t.Fatalf("placement = %+v", p)
	}
	if g := cascade.PlacementGain(path, p.Indices); g != p.Gain {
		t.Fatalf("gain mismatch: %v vs %v", g, p.Gain)
	}
}

func TestAPISchemeFactory(t *testing.T) {
	for _, name := range cascade.SchemeNames() {
		s, err := cascade.NewScheme(name)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("NewScheme(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := cascade.NewScheme("nonsense"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestAPIEndToEndSimulation(t *testing.T) {
	gen := cascade.NewGenerator(cascade.TraceConfig{
		Objects: 500, Servers: 20, Clients: 50, Requests: 20000, Duration: 3600, Seed: 2,
	})
	net := cascade.GenerateTiers(cascade.DefaultTiersConfig(), rand.New(rand.NewSource(2)))
	sim, err := cascade.NewSimulator(cascade.SimConfig{
		Scheme:            cascade.NewCoordinated(),
		Network:           net,
		Catalog:           gen.Catalog(),
		RelativeCacheSize: 0.02,
		Seed:              2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, replayed := sim.Run(gen, gen.Len()/2)
	if replayed != 20000 || sum.Requests != 10000 {
		t.Fatalf("replayed=%d recorded=%d", replayed, sum.Requests)
	}
	if sum.ByteHitRatio <= 0 || sum.AvgLatency <= 0 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
}

func TestAPICoherency(t *testing.T) {
	gen := cascade.NewGenerator(cascade.TraceConfig{
		Objects: 300, Servers: 10, Clients: 30, Requests: 15000, Duration: 7200, Seed: 3,
	})
	net := cascade.GenerateTree(cascade.DefaultTreeConfig())
	sim, err := cascade.NewSimulator(cascade.SimConfig{
		Scheme:            cascade.NewCoordinated(),
		Network:           net,
		Catalog:           gen.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              3,
		Coherency: &cascade.CoherencyConfig{
			Mode:                 cascade.CoherencyPSI,
			ObjectUpdateInterval: 600, // aggressive updates to force staleness
			Seed:                 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := sim.Run(gen, gen.Len()/2)
	if sum.StaleHitRatio <= 0 {
		t.Fatalf("aggressive updates yielded zero staleness: %+v", sum)
	}
	if sum.StaleHitRatio > 0.5 {
		t.Fatalf("PSI left staleness unreasonably high: %v", sum.StaleHitRatio)
	}

	// CAS-strict through the same facade: staleness is zero by construction.
	simCAS, err := cascade.NewSimulator(cascade.SimConfig{
		Scheme:            cascade.NewCoordinated(),
		Network:           net,
		Catalog:           gen.Catalog(),
		RelativeCacheSize: 0.05,
		Seed:              3,
		Coherency: &cascade.CoherencyConfig{
			Mode:                 cascade.CoherencyCAS,
			ObjectUpdateInterval: 600,
			Seed:                 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Reset()
	sumCAS, _ := simCAS.Run(gen, gen.Len()/2)
	if sumCAS.StaleHitRatio != 0 {
		t.Fatalf("CAS-strict served stale hits: %v", sumCAS.StaleHitRatio)
	}
	if mode, err := cascade.ParseCoherencyMode("cas"); err != nil || mode != cascade.CoherencyCAS {
		t.Fatalf("ParseCoherencyMode(cas) = %v, %v", mode, err)
	}
}

func TestAPIClusterRoundTrip(t *testing.T) {
	net := cascade.GenerateTree(cascade.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	cluster, err := cascade.NewCluster(cascade.ClusterConfig{
		Network:       net,
		CacheBytes:    10000,
		DCacheEntries: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	leaf := net.ClientAttachPoints()[0]
	res, err := cluster.Get(context.Background(), leaf, cascade.NoNode, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != cascade.NoNode {
		t.Fatalf("first request not origin-served: %+v", res)
	}
}

func TestAPITraceRoundTripAndWorkload(t *testing.T) {
	gen := cascade.NewGenerator(cascade.TraceConfig{
		Objects: 100, Servers: 5, Clients: 10, Requests: 300, Duration: 60, Seed: 4,
	})
	var buf bytes.Buffer
	w, err := cascade.NewTraceWriter(&buf, gen.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := cascade.NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Catalog().Objects) != 100 {
		t.Fatalf("catalog objects = %d", len(r.Catalog().Objects))
	}
}

func TestAPISquidConversion(t *testing.T) {
	log := "894974483.921 235 10.0.0.1 TCP_MISS/200 4322 GET http://a.com/x - DIRECT/1.2.3.4 text/html\n"
	var out bytes.Buffer
	stats, err := cascade.ConvertSquidLog(strings.NewReader(log), &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 || stats.Objects != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAPIExperimentSweepAndFigures(t *testing.T) {
	cfg := cascade.ExperimentConfig{
		Trace: cascade.TraceConfig{
			Objects: 200, Servers: 10, Clients: 20, Requests: 5000, Duration: 1200, Seed: 5,
		},
		CacheSizes: []float64{0.02},
		Schemes:    []string{"LRU", "COORD"},
	}
	sweep, err := cascade.RunSweep(cascade.ArchEnRoute, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cascade.Figures()) != 10 {
		t.Fatalf("figure registry has %d entries", len(cascade.Figures()))
	}
	fig, ok := cascade.FigureByID("fig6a")
	if !ok {
		t.Fatal("fig6a missing")
	}
	tab := sweep.Project(fig)
	var txt bytes.Buffer
	if err := tab.Format(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "COORD") {
		t.Fatalf("table missing scheme column:\n%s", txt.String())
	}
}

func TestAPIDefaultsMatchPaper(t *testing.T) {
	tiers := cascade.DefaultTiersConfig()
	if tiers.WANNodes != 50 || tiers.MANs*tiers.NodesPerMAN != 50 {
		t.Fatalf("tiers defaults: %+v", tiers)
	}
	tree := cascade.DefaultTreeConfig()
	if tree.Depth != 4 || tree.Fanout != 3 || tree.BaseDelay != 0.008 || tree.Growth != 5 {
		t.Fatalf("tree defaults: %+v", tree)
	}
}

// TestParseBytes pins the size syntax of the gateway commands' flags
// (cascadegw -capacity, -spill-max, -segment-*; cascadeload -capacity). A
// fraction, trailing garbage and a hex literal used to read as their leading
// digits in one command (-capacity 1.5MB became 1 MiB), and a size past
// int64 wrapped negative in both.
func TestParseBytes(t *testing.T) {
	for in, want := range map[string]int64{
		"1024":         1024,
		"0":            0,
		"100B":         100,
		"4KB":          4 << 10,
		"64mb":         64 << 20,
		"2GB":          2 << 30,
		" 8 MB ":       8 << 20,
		"8589934591GB": 8589934591 << 30,
	} {
		if got, err := cascade.ParseBytes(in); err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-1", "-4KB", "12TBx", "1.5", "1.5MB", "12x", "0x10", "9999999999GB", "9223372036854775808"} {
		if got, err := cascade.ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want it refused", bad, got)
		}
	}
}
