package cascade_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cascade"
)

// miniature configuration for exercising every study through the facade.
func miniCfg() cascade.ExperimentConfig {
	return cascade.ExperimentConfig{
		Trace: cascade.TraceConfig{
			Objects: 150, Servers: 10, Clients: 15,
			Requests: 3000, Duration: 900, Seed: 6,
		},
		CacheSizes: []float64{0.03},
		Schemes:    []string{"LRU", "COORD"},
	}
}

// TestAPIStudiesSmoke runs every study of the table end-to-end at tiny
// scale, on every architecture it runs on: each must produce a non-empty,
// well-formed table.
func TestAPIStudiesSmoke(t *testing.T) {
	for _, st := range cascade.Studies() {
		t.Run(st.Name, func(t *testing.T) {
			if !st.PerArch {
				studySmoke(t, st, "")
				return
			}
			for _, arch := range []cascade.Architecture{cascade.ArchEnRoute, cascade.ArchHierarchy} {
				t.Run(string(arch), func(t *testing.T) { studySmoke(t, st, arch) })
			}
		})
	}
}

func studySmoke(t *testing.T, st cascade.Study, arch cascade.Architecture) {
	var log bytes.Buffer
	tab, err := st.Run(arch, miniCfg(), &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
		t.Fatalf("empty table: %+v", tab)
	}
	var txt, md, csv bytes.Buffer
	if err := tab.Format(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tab.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if txt.Len() == 0 || md.Len() == 0 || csv.Len() == 0 {
		t.Fatal("a rendering came out empty")
	}
	// Round-trip through the baseline comparator: zero drift.
	drifts, err := cascade.CompareBaselineCSV(tab, bytes.NewReader(csv.Bytes()), 0.01)
	if err != nil || len(drifts) != 0 {
		t.Fatalf("self-comparison drifted: %v, %v", drifts, err)
	}
}

func TestAPIReplicateSmoke(t *testing.T) {
	fig, ok := cascade.FigureByID("fig6a")
	if !ok {
		t.Fatal("fig6a missing")
	}
	tab, err := cascade.Replicate(cascade.ArchEnRoute, miniCfg(), fig, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Columns) != 4 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
}

func TestAPIAnalysisSmoke(t *testing.T) {
	objs := []cascade.AnalysisObject{{Rate: 2, Size: 100}, {Rate: 1, Size: 100}}
	if p := cascade.StaticOptimalHitRatio(objs, 100); p.HitRatio <= 0.5 {
		t.Fatalf("static optimal %v", p.HitRatio)
	}
	if p, err := cascade.CheLRUHitRatio(objs, 100); err != nil || p.HitRatio <= 0 {
		t.Fatalf("che: %v %v", p, err)
	}
	preds, err := cascade.CheLRUTreeHitRatios(objs, 100, 2, 2, 2)
	if err != nil || len(preds) != 2 {
		t.Fatalf("tree: %v %v", preds, err)
	}
}

func TestAPIUniformBudgetsAndDCacheFactories(t *testing.T) {
	b := cascade.UniformBudgets([]cascade.NodeID{0, 1}, 1000, 10)
	if len(b) != 2 || b[0].CacheBytes != 1000 || b[1].DCacheEntries != 10 {
		t.Fatalf("budgets: %+v", b)
	}
	s := cascade.NewCoordinated()
	s.SetDCacheFactory(cascade.DCacheLRUStacks)
	s.Configure(b)
	out := s.Process(0, 1, 100, cascade.SchemePath{Nodes: []cascade.NodeID{0, 1}, UpCost: []float64{1, 1}})
	if out.HitIndex != 2 {
		t.Fatalf("first request hit %d", out.HitIndex)
	}
	chk := cascade.NewSchemeChecker(cascade.NewLRU2H())
	chk.Configure(b)
	chk.Process(0, 2, 50, cascade.SchemePath{Nodes: []cascade.NodeID{0, 1}, UpCost: []float64{1, 1}})
	if !strings.HasSuffix(chk.Name(), "+check") {
		t.Fatalf("checker name %q", chk.Name())
	}
}

func TestAPIArtifactsAndTools(t *testing.T) {
	// Trace merge through the facade.
	gen := cascade.NewGenerator(cascade.TraceConfig{
		Objects: 30, Servers: 2, Clients: 3, Requests: 100, Duration: 50, Seed: 8,
	})
	var trace1 bytes.Buffer
	w, err := cascade.NewTraceWriter(&trace1, gen.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		w.WriteRequest(req)
	}
	w.Flush()
	data := trace1.Bytes()
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }

	var merged bytes.Buffer
	n, err := cascade.MergeTraces([]func() (io.ReadCloser, error){open, open}, &merged)
	if err != nil || n != 200 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}

	// Stats of the merged trace.
	stats, err := cascade.TraceStats(bytes.NewReader(merged.Bytes()))
	if err != nil || stats.Requests != 200 || stats.Objects != 60 {
		t.Fatalf("stats: %+v err=%v", stats, err)
	}

	// Subtrace extraction of the merge.
	var sub bytes.Buffer
	ss, err := cascade.ExtractTopObjects(func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(merged.Bytes())), nil
	}, &sub, 10)
	if err != nil || ss.KeptObjects != 10 {
		t.Fatalf("subtrace: %+v err=%v", ss, err)
	}

	// HTML report of a tiny table.
	var html bytes.Buffer
	tab := cascade.ResultTable{
		Title: "T", XLabel: "x", Columns: []string{"a"},
	}
	if err := cascade.WriteHTMLReport(&html, "r", []cascade.ResultTable{tab}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "<h2>T</h2>") {
		t.Fatal("report missing table heading")
	}

	// Wall clock is monotone non-negative.
	clk := cascade.WallClock()
	if clk() < 0 {
		t.Fatal("wall clock negative")
	}
	// File origin handler constructs.
	if cascade.NewHTTPFileOrigin(t.TempDir()) == nil {
		t.Fatal("file origin nil")
	}
}
