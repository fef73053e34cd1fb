package experiment

import (
	"fmt"
	"io"

	"cascade/internal/analysis"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// analysisStudy validates the closed-form machinery against the simulator:
// it replays the workload through LRU caches on the hierarchy, measures
// each level's hit ratio (hits at the level / requests reaching it), and
// sets the layered Che approximation beside the measurements. The
// approximation treats the trace as an independent reference model and the
// tree as uniformly loaded, so agreement is expected to be qualitative at
// upper levels and close at the leaves.
func analysisStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	gen := trace.NewGenerator(cfg.Trace)
	cat := gen.Catalog()
	tree := topology.GenerateTree(cfg.Tree)
	tc := tree.Config()

	// Measured side: full replay with per-node accounting (no warmup so
	// arrivals reconcile exactly with replayed requests).
	simr, err := sim.New(sim.Config{
		Scheme:            scheme.NewLRU(),
		Network:           tree,
		Catalog:           cat,
		RelativeCacheSize: studySize,
		Seed:              cfg.AttachSeed + 7,
		TrackNodes:        true,
	})
	if err != nil {
		return Table{}, err
	}
	gen.Reset()
	_, replayed := simr.Run(gen, 0)
	hitsPerLevel := make([]int64, tc.Depth)
	for n, st := range simr.NodeStats() {
		hitsPerLevel[tree.Level(model.NodeID(n))] += st.Hits
	}

	// Analytical side: empirical per-object rates feed the layered Che
	// approximation with the same per-node byte capacity.
	counts := make([]float64, len(cat.Objects))
	gen.Reset()
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		counts[req.Object]++
	}
	duration := gen.Config().Duration
	objs := make([]analysis.Object, len(cat.Objects))
	for i := range objs {
		objs[i] = analysis.Object{Rate: counts[i] / duration, Size: cat.Objects[i].Size}
	}
	capacity := int64(studySize * float64(cat.TotalBytes))
	preds, err := analysis.CheLRUTree(objs, capacity, tc.Depth, tc.Fanout, len(tree.ClientAttachPoints()))
	if err != nil {
		return Table{}, err
	}

	t := Table{
		Title: fmt.Sprintf("Analysis validation (hierarchy, cache size %.2f%%): measured LRU hit ratio per level vs layered Che approximation",
			studySize*100),
		XLabel:  "level",
		YLabel:  "hit ratio of requests reaching the level",
		Columns: []string{"measured", "Che approx"},
	}
	arriving := int64(replayed)
	for l := 0; l < tc.Depth; l++ {
		measured := 0.0
		if arriving > 0 {
			measured = float64(hitsPerLevel[l]) / float64(arriving)
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("L%d", l),
			Values: []float64{measured, preds[l].HitRatio},
		})
		arriving -= hitsPerLevel[l]
	}
	return t, nil
}
