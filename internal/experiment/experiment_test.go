package experiment

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/trace"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	return Config{
		Trace: trace.Config{
			Objects:  300,
			Servers:  20,
			Clients:  40,
			Requests: 8000,
			Duration: 3600,
			Seed:     5,
		},
		CacheSizes: []float64{0.01, 0.05},
		Schemes:    []string{"LRU", "COORD"},
	}
}

func TestRunSweepShape(t *testing.T) {
	var seen int
	sw, err := RunSweep(EnRoute, tinyConfig(), func(Cell) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 4 || seen != 4 {
		t.Fatalf("cells = %d, progress calls = %d, want 4", len(sw.Cells), seen)
	}
	for _, c := range sw.Cells {
		if c.Summary.Requests != 4000 {
			t.Fatalf("cell %s/%v recorded %d requests", c.Scheme, c.CacheSize, c.Summary.Requests)
		}
	}
	if _, ok := sw.Cell(0.01, "COORD"); !ok {
		t.Fatal("cell lookup failed")
	}
	if _, ok := sw.Cell(0.02, "COORD"); ok {
		t.Fatal("lookup of absent cell succeeded")
	}
}

func TestRunSweepUnknownScheme(t *testing.T) {
	cfg := tinyConfig()
	cfg.Schemes = []string{"BOGUS"}
	if _, err := RunSweep(EnRoute, cfg, nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestFigureProjection(t *testing.T) {
	sw, err := RunSweep(EnRoute, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Figures {
		if f.Arch != EnRoute {
			continue
		}
		tab := sw.Project(f)
		if len(tab.Rows) != 2 || len(tab.Columns) != 2 {
			t.Fatalf("%s: table shape %dx%d", f.ID, len(tab.Rows), len(tab.Columns))
		}
		for _, r := range tab.Rows {
			if len(r.Values) != 2 {
				t.Fatalf("%s: row %q has %d values", f.ID, r.Label, len(r.Values))
			}
		}
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"fig6a", "fig7b", "fig10b"} {
		if _, ok := FigureByID(id); !ok {
			t.Fatalf("figure %s missing", id)
		}
	}
	if _, ok := FigureByID("fig99"); ok {
		t.Fatal("bogus figure found")
	}
	if len(Figures) != 10 {
		t.Fatalf("paper has 10 evaluation figures, registry has %d", len(Figures))
	}
}

func TestProjectWrongArchPanics(t *testing.T) {
	sw, err := RunSweep(EnRoute, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("projecting a hierarchy figure from an en-route sweep did not panic")
		}
	}()
	fig, _ := FigureByID("fig9a")
	sw.Project(fig)
}

func TestHierarchySweep(t *testing.T) {
	sw, err := RunSweep(Hierarchy, tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fig, _ := FigureByID("fig10a")
	tab := sw.Project(fig)
	// Hit ratio must be within [0,1] and increase with cache size for LRU.
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v < 0 || v > 1 {
				t.Fatalf("byte hit ratio %v out of range", v)
			}
		}
	}
}

func TestRadiusStudy(t *testing.T) {
	tab, err := radiusStudy(Hierarchy, tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 || tab.Rows[0].Label != "1" || tab.Rows[3].Label != "4" {
		t.Fatalf("rows: %+v", tab.Rows)
	}
	// §4.2: in the hierarchy radius 1 (≡ LRU) beats radius 4, which
	// leaves the upper levels unused.
	for col := range tab.Columns {
		if tab.Rows[0].Values[col] >= tab.Rows[3].Values[col] {
			t.Fatalf("radius 1 latency %v not below radius 4 %v (col %d)",
				tab.Rows[0].Values[col], tab.Rows[3].Values[col], col)
		}
	}
}

func TestDCacheStudy(t *testing.T) {
	tab, err := dcacheStudy(EnRoute, tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 || len(tab.Rows[0].Values) != 2 {
		t.Fatalf("table shape wrong: %+v", tab)
	}
}

func TestOverheadStudySmall(t *testing.T) {
	tab, err := overheadStudy(EnRoute, tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		piggy, payloadKB, pct := r.Values[0], r.Values[1], r.Values[2]
		if piggy < 0 || payloadKB <= 0 || pct < 0 {
			t.Fatalf("bad overhead row: %+v", r)
		}
		// §2.4: descriptors are a few tens of bytes — negligible next
		// to payloads.
		if pct > 20 {
			t.Fatalf("piggyback overhead %v%% not negligible", pct)
		}
	}
}

func TestTable1(t *testing.T) {
	tab, err := table1("", Config{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := tab.Rows[0].Values[0]; nodes != 100 {
		t.Fatalf("nodes = %v", nodes)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("table rows = %d", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "Table 1") || !strings.Contains(s, "WAN") {
		t.Fatalf("formatted table wrong:\n%s", s)
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := Table{
		Title:   "T",
		XLabel:  "x",
		YLabel:  "y",
		Columns: []string{"a", "b,c"},
		Rows: []Row{
			{Label: "r1", Values: []float64{1.5, 200000}},
			{Label: "r2", Values: []float64{0.0001, 0}},
		},
	}
	var txt bytes.Buffer
	if err := tab.Format(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T", "x", "a", "r1", "1.5000"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("formatted output missing %q:\n%s", want, txt.String())
		}
	}
	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != `x,a,"b,c"` {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "r1,1.5,200000" {
		t.Fatalf("csv row = %q", lines[1])
	}
}

// tinyFrontier is the freshness frontier at tinyConfig, which two tests
// read: its rows are a week, a day and two hours between an object's
// updates.
var tinyFrontier = sync.OnceValues(func() (Table, error) {
	return freshnessFrontier(EnRoute, tinyConfig(), io.Discard)
})

func TestFreshnessFrontier(t *testing.T) {
	tab, err := tinyFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[2].Values) != 10 || tab.Rows[2].Label != "2h" {
		t.Fatalf("table shape wrong: %+v", tab)
	}
	v := tab.Rows[2].Values
	noneLat, noneStale := v[0], v[1]
	ttlStale, ttlRefetch := v[3], v[4]
	psiStale := v[6]
	casStale, casRefetch := v[8], v[9]
	if noneStale <= 0 {
		t.Fatal("aggressive updates produced no stale hits under mode None")
	}
	// TTL and PSI must both reduce staleness below the do-nothing mode.
	if ttlStale >= noneStale || psiStale >= noneStale {
		t.Fatalf("modes did not reduce staleness: none=%v ttl=%v psi=%v",
			noneStale, ttlStale, psiStale)
	}
	if ttlRefetch <= 0 {
		t.Fatal("TTL never revalidated despite updates")
	}
	// The CAS contract: zero staleness, bought with validation refetches.
	if casStale != 0 {
		t.Fatalf("CAS-strict mode served stale hits: %v", casStale)
	}
	if casRefetch <= 0 {
		t.Fatal("CAS never invalidated a copy despite aggressive updates")
	}
	if noneLat <= 0 {
		t.Fatal("latency missing")
	}
}

func TestFreshnessAssumptionHoldsAtWebRates(t *testing.T) {
	// The §2 assumption: at realistic (weekly) update rates, staleness is
	// negligible even with no consistency protocol at all.
	tab, err := tinyFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].Label != "168h" {
		t.Fatalf("first row %q, want the weekly one", tab.Rows[0].Label)
	}
	if stale := tab.Rows[0].Values[1]; stale > 0.02 {
		t.Fatalf("stale-hit ratio %v at weekly updates; assumption violated", stale)
	}
}

func TestTreeShapeStudy(t *testing.T) {
	tab, err := treeShapeStudy("", tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The trend the paper reports: COORD beats LRU at every growth value.
	for _, r := range tab.Rows {
		lru, crd, gain := r.Values[0], r.Values[1], r.Values[2]
		if crd >= lru || gain <= 0 {
			t.Fatalf("row %s: COORD %v not better than LRU %v", r.Label, crd, lru)
		}
	}
}

func TestZipfStudy(t *testing.T) {
	tab, err := zipfStudy("", tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Values[1] >= r.Values[0] {
			t.Fatalf("theta %s: COORD %v not better than LRU %v", r.Label, r.Values[1], r.Values[0])
		}
	}
	// Stronger skew → hotter head → better absolute latency: θ = 0.9
	// against θ = 0.6.
	if tab.Rows[3].Values[1] >= tab.Rows[0].Values[1] {
		t.Fatalf("higher theta did not reduce COORD latency: %v vs %v",
			tab.Rows[3].Values[1], tab.Rows[0].Values[1])
	}
}

func TestCostModelStudy(t *testing.T) {
	tab, err := costModelStudy(EnRoute, tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row 0 optimizes latency, row 1 bandwidth (byte*hops), row 2 hops.
	// Each must be within a whisker of best on its own column (small
	// workloads carry noise; allow 5%).
	for i, col := range []int{0, 1, 2} {
		own := tab.Rows[i].Values[col]
		for j := range tab.Rows {
			if tab.Rows[j].Values[col] < own*0.95 {
				t.Fatalf("model %s beaten on its own measure by %s: %v vs %v",
					tab.Rows[i].Label, tab.Rows[j].Label, own, tab.Rows[j].Values[col])
			}
		}
	}
}

func TestLocalityStudy(t *testing.T) {
	tab, err := localityStudy("", tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Rows[0].Values) != 6 {
		t.Fatalf("table shape: %+v", tab)
	}
	// COORD must beat LRU on latency at both locality levels.
	for _, r := range tab.Rows {
		if r.Values[2] >= r.Values[0] {
			t.Fatalf("locality %s: COORD %v not better than LRU %v", r.Label, r.Values[2], r.Values[0])
		}
	}
}

func TestLevelStudy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Schemes = []string{"LRU", "MODULO(4)", "COORD"}
	tab, err := levelStudy("", cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Columns) != 5 { // L0..L3 + origin
		t.Fatalf("table shape: %dx%d", len(tab.Rows), len(tab.Columns))
	}
	for _, r := range tab.Rows {
		sum := 0.0
		for _, v := range r.Values {
			if v < 0 || v > 1 {
				t.Fatalf("%s: share %v out of range", r.Label, v)
			}
			sum += v
		}
		if sum < 0.98 || sum > 1.02 {
			t.Fatalf("%s: shares sum to %v", r.Label, sum)
		}
	}
	// MODULO(4) on a depth-4 tree: levels 1..3 serve nothing (§4.2).
	mod := tab.Rows[1]
	if mod.Values[1] != 0 || mod.Values[2] != 0 || mod.Values[3] != 0 {
		t.Fatalf("MODULO(4) served from upper levels: %+v", mod)
	}
	// LRU and COORD must use the upper levels at least somewhat.
	for _, i := range []int{0, 2} {
		upper := tab.Rows[i].Values[1] + tab.Rows[i].Values[2] + tab.Rows[i].Values[3]
		if upper <= 0 {
			t.Fatalf("%s never used upper levels", tab.Rows[i].Label)
		}
	}
}

func TestReplicate(t *testing.T) {
	fig, _ := FigureByID("fig6a")
	tab, err := Replicate(EnRoute, tinyConfig(), fig, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Columns) != 4 { // 2 schemes × (mean, sd)
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	for _, r := range tab.Rows {
		lruMean, lruSD := r.Values[0], r.Values[1]
		crdMean := r.Values[2]
		if lruMean <= 0 || lruSD < 0 {
			t.Fatalf("bad stats: %+v", r)
		}
		// The headline comparison must survive reseeding.
		if crdMean >= lruMean {
			t.Fatalf("%s: COORD mean %v not below LRU mean %v", r.Label, crdMean, lruMean)
		}
		// Seeds differ, so some variance must appear.
		if lruSD == 0 {
			t.Fatalf("%s: zero variance across distinct seeds", r.Label)
		}
	}
}

func TestReplicateWrongArch(t *testing.T) {
	fig, _ := FigureByID("fig9a")
	if _, err := Replicate(EnRoute, tinyConfig(), fig, 2); err == nil {
		t.Fatal("arch mismatch accepted")
	}
}

func TestMeanStdev(t *testing.T) {
	m, sd := meanStdev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if sd < 2.13 || sd > 2.15 { // sample stdev = sqrt(32/7) ≈ 2.138
		t.Fatalf("sd = %v", sd)
	}
	if m, sd := meanStdev(nil); m != 0 || sd != 0 {
		t.Fatal("empty stats wrong")
	}
	if _, sd := meanStdev([]float64{3}); sd != 0 {
		t.Fatal("single-sample sd not zero")
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := Table{
		Title:   "MD",
		XLabel:  "x",
		YLabel:  "y",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "r", Values: []float64{1, 0.5}}},
	}
	var buf bytes.Buffer
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"**MD**", "| x | a | b |", "|---|---|---|", "| r | 1 | 0.5000 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestAdaptivityStudy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trace.Requests = 24000
	tab, err := adaptivityStudy("", cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 12 || len(tab.Columns) != 2 {
		t.Fatalf("table shape: %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// The flash crowd hits mid-trace: latency in the window right after
	// the shift must exceed the window right before it (cached state is
	// suddenly useless) for LRU.
	mid := len(tab.Rows) / 2
	before, after := tab.Rows[mid-1].Values[0], tab.Rows[mid].Values[0]
	if after <= before {
		t.Fatalf("no flash-crowd disruption visible: before=%v after=%v", before, after)
	}
}

func TestCapacityStudy(t *testing.T) {
	tab, err := capacityStudy("", tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Rows[0].Values) != 4 {
		t.Fatalf("table shape: %+v", tab)
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Fatalf("profile %s: non-positive value %v", r.Label, v)
			}
		}
		// COORD must beat LRU under every provisioning profile.
		if r.Values[1] >= r.Values[0] {
			t.Fatalf("profile %s: COORD %v not better than LRU %v", r.Label, r.Values[1], r.Values[0])
		}
	}
}

func TestCapacityWeightsPreserveBudget(t *testing.T) {
	// Leaf-heavy weights must not change the total budget: compare a
	// degenerate weight function (uniform via weights) against no
	// weights at all — identical results.
	cfg := tinyConfig()
	w := syntheticWorkload(trace.NewGenerator(cfg.Trace))
	net := cfg.Network(Hierarchy)
	base, err := runCell(cfg, scheme.NewLRU(), net, w, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	simr, err := sim.New(sim.Config{
		Scheme:            scheme.NewLRU(),
		Network:           net,
		Catalog:           w.Catalog(),
		RelativeCacheSize: 0.03,
		DCacheFactor:      cfg.DCacheFactor,
		Seed:              cfg.AttachSeed + 7,
		CapacityWeights:   func(model.NodeID) float64 { return 2.5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := w.Open()
	sum, _ := simr.Run(src, w.Len()/2)
	if sum.AvgLatency != base.Summary.AvgLatency {
		t.Fatalf("constant weights changed the run: %v vs %v", sum.AvgLatency, base.Summary.AvgLatency)
	}
}

func TestCompareCSV(t *testing.T) {
	tab := Table{
		Title:   "T",
		XLabel:  "x",
		Columns: []string{"a", "b,c"},
		Rows: []Row{
			{Label: "r1", Values: []float64{1.0, 2.0}},
			{Label: "r2", Values: []float64{3.0, 4.0}},
		},
	}
	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	// Identical baseline → no drift.
	drifts, err := CompareCSV(tab, bytes.NewReader(csv.Bytes()), 0.05)
	if err != nil || len(drifts) != 0 {
		t.Fatalf("identical baseline drifted: %v, %v", drifts, err)
	}
	// Perturb one cell by 10% → exactly one drift.
	tab2 := tab
	tab2.Rows = []Row{
		{Label: "r1", Values: []float64{1.1, 2.0}},
		{Label: "r2", Values: []float64{3.0, 4.0}},
	}
	drifts, err = CompareCSV(tab2, bytes.NewReader(csv.Bytes()), 0.05)
	if err != nil || len(drifts) != 1 {
		t.Fatalf("drifts = %v, err = %v", drifts, err)
	}
	if drifts[0].Row != "r1" || drifts[0].Column != "a" {
		t.Fatalf("drift location wrong: %+v", drifts[0])
	}
	if !strings.Contains(drifts[0].String(), "r1/a") {
		t.Fatalf("drift string: %s", drifts[0])
	}
	// Within tolerance → clean.
	drifts, err = CompareCSV(tab2, bytes.NewReader(csv.Bytes()), 0.2)
	if err != nil || len(drifts) != 0 {
		t.Fatalf("tolerant compare drifted: %v", drifts)
	}
}

func TestCompareCSVStructuralErrors(t *testing.T) {
	tab := Table{Columns: []string{"a"}, Rows: []Row{{Label: "r", Values: []float64{1}}}}
	cases := []string{
		"",                    // empty
		"x,zzz\nr,1\n",        // wrong column name
		"x,a\nq,1\n",          // wrong row label
		"x,a\nr,1\nextra,2\n", // extra row
		"x,a\n",               // missing row
		"x,a\nr,abc\n",        // bad number
		"x,a,b\nr,1,2\n",      // extra column
	}
	for _, in := range cases {
		if _, err := CompareCSV(tab, strings.NewReader(in), 0.05); err == nil {
			t.Fatalf("baseline %q accepted", in)
		}
	}
}

func TestWindowKStudy(t *testing.T) {
	tab, err := windowKStudy("", tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Values[0] <= 0 || r.Values[1] <= 0 {
			t.Fatalf("row %s: %v", r.Label, r.Values)
		}
	}
}

func TestPartialDeploymentStudy(t *testing.T) {
	tab, err := partialDeploymentStudy("", tinyConfig(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Full participation must beat zero participation on latency.
	if tab.Rows[4].Values[0] >= tab.Rows[0].Values[0] {
		t.Fatalf("full coordination %v not better than none %v",
			tab.Rows[4].Values[0], tab.Rows[0].Values[0])
	}
}

func TestAnalysisStudy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trace.Requests = 30000
	tab, err := analysisStudy("", cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Leaf-level agreement should be decent (within 10 points); all
	// values in range.
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v < 0 || v > 1 {
				t.Fatalf("%s: ratio %v out of range", r.Label, v)
			}
		}
	}
	leaf := tab.Rows[0]
	if diff := leaf.Values[0] - leaf.Values[1]; diff > 0.1 || diff < -0.1 {
		t.Fatalf("leaf-level: measured %v vs Che %v (off by %v)",
			leaf.Values[0], leaf.Values[1], diff)
	}
}

func TestSweepConcurrencyDeterminism(t *testing.T) {
	cfg := tinyConfig()
	cfg.CacheSizes = []float64{0.01, 0.03, 0.05}
	cfg.Schemes = []string{"LRU", "COORD", "MODULO(4)"}

	seq := cfg
	seq.Concurrency = 1
	par := cfg
	par.Concurrency = 8

	a, err := RunSweep(EnRoute, seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(EnRoute, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs between concurrency levels:\n%+v\n%+v",
				i, a.Cells[i], b.Cells[i])
		}
	}
}

func TestFileWorkloadReplay(t *testing.T) {
	// Write a small trace to disk and drive a sweep from it twice; the
	// file workload must replay identically on every Open.
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	gen := trace.NewGenerator(trace.Config{
		Objects: 80, Servers: 5, Clients: 8, Requests: 1500, Duration: 300, Seed: 3,
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f, gen.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if err := tw.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, err := FileWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1500 || len(w.Catalog().Objects) != 80 {
		t.Fatalf("workload shape: len=%d objects=%d", w.Len(), len(w.Catalog().Objects))
	}
	cfg := tinyConfig()
	cfg.Workload = w
	cfg.CacheSizes = []float64{0.05}
	cfg.Schemes = []string{"COORD"}
	a, err := RunSweep(EnRoute, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(EnRoute, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cells[0] != b.Cells[0] {
		t.Fatalf("file workload not reproducible:\n%+v\n%+v", a.Cells[0], b.Cells[0])
	}

	// Error paths.
	if _, err := FileWorkload(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.trace")
	ef, _ := os.Create(empty)
	ew, _ := trace.NewWriter(ef, gen.Catalog())
	ew.Flush()
	ef.Close()
	if _, err := FileWorkload(empty); err == nil {
		t.Fatal("request-less trace accepted")
	}
}

func TestSVGRendering(t *testing.T) {
	tab := Table{
		Title:   "Fig <test> & co",
		XLabel:  "cache size",
		Columns: []string{"LRU", "COORD"},
		Rows: []Row{
			{Label: "1%", Values: []float64{0.9, 0.6}},
			{Label: "3%", Values: []float64{0.7, 0.45}},
			{Label: "10%", Values: []float64{0.5, 0.25}},
		},
	}
	var buf bytes.Buffer
	if err := tab.SVG(&buf, 560, 360); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "polyline", "Fig &lt;test&gt; &amp; co", "LRU", "COORD", "circle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	if got := strings.Count(out, "<polyline"); got != 2 {
		t.Fatalf("polylines = %d, want 2", got)
	}
	if got := strings.Count(out, "<circle"); got != 6 {
		t.Fatalf("points = %d, want 6", got)
	}
	// Degenerate inputs don't crash.
	var empty bytes.Buffer
	if err := (Table{Title: "E"}).SVG(&empty, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no data") {
		t.Fatal("empty svg not flagged")
	}
	one := Table{Columns: []string{"a"}, Rows: []Row{{Label: "x", Values: []float64{5}}}}
	if err := one.SVG(&empty, 300, 200); err != nil {
		t.Fatal(err)
	}
}

func TestWriteHTMLReport(t *testing.T) {
	tables := []Table{
		{
			Title:   "Fig A",
			XLabel:  "size",
			Columns: []string{"LRU", "COORD"},
			Rows: []Row{
				{Label: "1%", Values: []float64{0.9, 0.6}},
				{Label: "10%", Values: []float64{0.5, 0.3}},
			},
		},
		{
			Title:   "Single <row>",
			XLabel:  "x",
			Columns: []string{"v"},
			Rows:    []Row{{Label: "only", Values: []float64{42}}},
		},
	}
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, "Paper & results", tables); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Paper &amp; results", "<h2>Fig A</h2>",
		"<svg", "<table>", "<td>0.9000</td>", "Single &lt;row&gt;", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// The single-row table gets no chart (nothing to plot).
	if strings.Count(out, "<figure>") != 1 {
		t.Fatalf("figures = %d, want 1", strings.Count(out, "<figure>"))
	}
}

// TestLedgerAuditGate: the ledger study prints every invariant's counts and
// fails on any violation.
func TestLedgerAuditGate(t *testing.T) {
	a := audit.New(nil)
	var log bytes.Buffer
	if err := auditGate(&log, EnRoute, a); err != nil {
		t.Fatalf("a clean auditor failed the gate: %v", err)
	}
	if got, want := strings.Count(log.String(), "\n"), len(audit.Invariants()); got != want {
		t.Fatalf("%d audit lines, want %d:\n%s", got, want, log.String())
	}
	a.CheckLocalBenefit(nil, 0, 0, 0, 1, 1, 5, 0) // f·m = 1 below l = 5
	if err := auditGate(io.Discard, EnRoute, a); err == nil || !strings.Contains(err.Error(), "1 audit violations") {
		t.Fatalf("gate = %v, want 1 audit violation", err)
	}
}

// TestStudyStems: a study's files are its name with "-" as "_", plus the
// architecture when it runs once per architecture.
func TestStudyStems(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Studies {
		if names[s.Name] {
			t.Fatalf("two studies named %q", s.Name)
		}
		names[s.Name] = true
		if _, isFig := FigureByID(s.Name); isFig {
			t.Fatalf("study %q shadows a figure", s.Name)
		}
	}
	byName := func(name string) Study {
		for _, s := range Studies {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no study %q", name)
		return Study{}
	}
	for _, tc := range []struct {
		name string
		arch Arch
		want string
	}{
		{"freshness-frontier", Hierarchy, "freshness_frontier_hierarchy"},
		{"radius", EnRoute, "radius_enroute"},
		{"zipf", EnRoute, "zipf"},
		{"table1", "", "table1"},
	} {
		if got := byName(tc.name).Stem(tc.arch); got != tc.want {
			t.Errorf("%s on %q: stem %q, want %q", tc.name, tc.arch, got, tc.want)
		}
	}
}
