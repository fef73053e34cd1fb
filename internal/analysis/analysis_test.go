package analysis

import (
	"math"
	"testing"

	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

func uniformObjects(n int, rate float64, size int64) []Object {
	out := make([]Object, n)
	for i := range out {
		out[i] = Object{Rate: rate, Size: size}
	}
	return out
}

func TestStaticOptimalBasics(t *testing.T) {
	objs := []Object{
		{Rate: 10, Size: 100},
		{Rate: 5, Size: 100},
		{Rate: 1, Size: 100},
	}
	p := StaticOptimal(objs, 200)
	// Top two cached: hit ratio = 15/16.
	if math.Abs(p.HitRatio-15.0/16.0) > 1e-12 {
		t.Fatalf("hit ratio = %v", p.HitRatio)
	}
	if p.PerObject[0] != 1 || p.PerObject[1] != 1 || p.PerObject[2] != 0 {
		t.Fatalf("per-object = %v", p.PerObject)
	}
	// Density ordering: a small hot object beats a big lukewarm one.
	objs2 := []Object{
		{Rate: 5, Size: 1000},
		{Rate: 4, Size: 100},
	}
	p2 := StaticOptimal(objs2, 100)
	if p2.PerObject[0] != 0 || p2.PerObject[1] != 1 {
		t.Fatalf("density ordering wrong: %v", p2.PerObject)
	}
}

func TestStaticOptimalEdgeCases(t *testing.T) {
	if p := StaticOptimal(nil, 100); p.HitRatio != 0 || p.ByteHitRatio != 0 {
		t.Fatal("empty catalog not zero")
	}
	objs := uniformObjects(3, 1, 100)
	if p := StaticOptimal(objs, 0); p.HitRatio != 0 {
		t.Fatal("zero capacity not zero")
	}
	if p := StaticOptimal(objs, 1000); p.HitRatio != 1 || p.ByteHitRatio != 1 {
		t.Fatal("everything-fits not one")
	}
}

func TestCheLRUUniform(t *testing.T) {
	// Uniform objects: hit ratio must equal the cached fraction-ish
	// (Che on uniform popularities gives h identical across objects and
	// the occupancy constraint pins Σ s·h = C → h = C/total).
	objs := uniformObjects(100, 0.5, 1000)
	p, err := CheLRU(objs, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.HitRatio-0.3) > 1e-6 {
		t.Fatalf("uniform Che hit ratio = %v, want 0.3", p.HitRatio)
	}
	for i := 1; i < len(p.PerObject); i++ {
		if math.Abs(p.PerObject[i]-p.PerObject[0]) > 1e-9 {
			t.Fatal("uniform objects got different hit probabilities")
		}
	}
}

func TestCheLRUEdgeCases(t *testing.T) {
	objs := uniformObjects(4, 1, 100)
	p, err := CheLRU(objs, 0)
	if err != nil || p.HitRatio != 0 {
		t.Fatalf("zero capacity: %+v, %v", p, err)
	}
	p, err = CheLRU(objs, 1000)
	if err != nil || p.HitRatio != 1 {
		t.Fatalf("everything fits: %+v, %v", p, err)
	}
}

func TestCheLRUSkewFavorsPopular(t *testing.T) {
	objs := []Object{
		{Rate: 100, Size: 1000},
		{Rate: 1, Size: 1000},
	}
	p, err := CheLRU(objs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.PerObject[0] <= p.PerObject[1] {
		t.Fatalf("popular object not favored: %v", p.PerObject)
	}
	if p.HitRatio <= 0.5 || p.HitRatio >= 1 {
		t.Fatalf("hit ratio %v implausible", p.HitRatio)
	}
}

func TestCheLRUDominatedByStaticOptimal(t *testing.T) {
	// LRU can never beat the static-optimal frontier under the IRM.
	objs := make([]Object, 200)
	for i := range objs {
		objs[i] = Object{Rate: 1 / float64(i+1), Size: int64(500 + (i*97)%1000)}
	}
	for _, capFrac := range []float64{0.05, 0.2, 0.5} {
		var total int64
		for _, o := range objs {
			total += o.Size
		}
		capacity := int64(capFrac * float64(total))
		che, err := CheLRU(objs, capacity)
		if err != nil {
			t.Fatal(err)
		}
		opt := StaticOptimal(objs, capacity)
		if che.HitRatio > opt.HitRatio+1e-9 {
			t.Fatalf("cap %.2f: Che %v beats static optimal %v", capFrac, che.HitRatio, opt.HitRatio)
		}
	}
}

func TestCheLRUTreeShape(t *testing.T) {
	objs := make([]Object, 100)
	for i := range objs {
		objs[i] = Object{Rate: 10 / float64(i+1), Size: 1000}
	}
	preds, err := CheLRUTree(objs, 10000, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("levels = %d", len(preds))
	}
	// Upper levels see the filtered (flatter) miss stream, so their hit
	// ratios are lower than the leaves'.
	if preds[1].HitRatio >= preds[0].HitRatio {
		t.Fatalf("level 1 hit ratio %v not below leaves %v", preds[1].HitRatio, preds[0].HitRatio)
	}
	if _, err := CheLRUTree(objs, 1000, 0, 2, 4); err == nil {
		t.Fatal("bad shape accepted")
	}
}

// TestCheMatchesSimulatedLRU validates the approximation against the
// actual simulator: a single-cache path replaying a Zipf IRM stream must
// land near the Che prediction.
func TestCheMatchesSimulatedLRU(t *testing.T) {
	cfg := trace.Config{
		Objects:  2000,
		Servers:  1,
		Clients:  1,
		Requests: 300000,
		Duration: 100000,
		Seed:     9,
	}
	gen := trace.NewGenerator(cfg)
	cat := gen.Catalog()
	capacity := int64(0.05 * float64(cat.TotalBytes))

	// Analysis inputs: per-object rates from the generator's Zipf law.
	// Measure empirical rates from the trace itself to avoid duplicating
	// the rank permutation logic.
	counts := make([]float64, cfg.Objects)
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		counts[req.Object]++
	}
	objs := make([]Object, cfg.Objects)
	for i := range objs {
		objs[i] = Object{Rate: counts[i] / cfg.Duration, Size: cat.Objects[i].Size}
	}
	pred, err := CheLRU(objs, capacity)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the same stream through a single LRU cache.
	s := scheme.NewLRU()
	s.Configure(scheme.Uniform([]model.NodeID{0}, capacity, 0))
	path := scheme.Path{Nodes: []model.NodeID{0}, UpCost: []float64{1}}
	gen.Reset()
	var requests, hits int
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		out := s.Process(req.Time, req.Object, req.Size, path)
		requests++
		if out.HitIndex == 0 {
			hits++
		}
	}
	measured := float64(hits) / float64(requests)
	if math.Abs(measured-pred.HitRatio) > 0.05 {
		t.Fatalf("Che prediction %v vs simulated %v (>5%% apart)", pred.HitRatio, measured)
	}
}

func TestTreeLatency(t *testing.T) {
	preds := []Prediction{{HitRatio: 0.5}, {HitRatio: 0.2}}
	delays := []float64{1, 10}
	// Level 0 uplink crossed with prob 0.5; level 1 (origin link) with
	// prob 0.5*0.8 = 0.4 → latency = 0.5*1 + 0.4*10 = 4.5.
	got, err := treeLatency(preds, delays)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("latency = %v, want 4.5", got)
	}
	if _, err := treeLatency(preds, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestTreeLatencyMatchesSimulatedLRU validates the full analytical chain —
// layered Che + delay folding — against a simulated LRU hierarchy (mean
// latency for average-size objects; sizes vary in the simulation, so the
// tolerance is loose but the scale must match).
func TestTreeLatencyMatchesSimulatedLRU(t *testing.T) {
	cfg := trace.Config{
		Objects:  1500,
		Servers:  10,
		Clients:  100,
		Requests: 150000,
		Duration: 50000,
		Seed:     14,
	}
	gen := trace.NewGenerator(cfg)
	cat := gen.Catalog()
	tree := topology.GenerateTree(topology.TreeConfig{})
	capacity := int64(0.05 * float64(cat.TotalBytes))

	counts := make([]float64, cfg.Objects)
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		counts[req.Object]++
	}
	objs := make([]Object, cfg.Objects)
	for i := range objs {
		objs[i] = Object{Rate: counts[i] / cfg.Duration, Size: cat.Objects[i].Size}
	}
	preds, err := CheLRUTree(objs, capacity, 4, 3, len(tree.ClientAttachPoints()))
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := treeLatency(preds, tree.Describe().LevelDelays)
	if err != nil {
		t.Fatal(err)
	}

	simr, err := sim.New(sim.Config{
		Scheme:            scheme.NewLRU(),
		Network:           tree,
		Catalog:           cat,
		RelativeCacheSize: 0.05,
		Seed:              14,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen.Reset()
	sum, _ := simr.Run(gen, gen.Len()/2)

	ratio := predicted / sum.AvgLatency
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("predicted %v vs simulated %v (ratio %.2f)", predicted, sum.AvgLatency, ratio)
	}
}
