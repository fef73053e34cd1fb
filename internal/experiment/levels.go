package experiment

import (
	"fmt"
	"io"

	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/topology"
)

// levelStudy breaks the hierarchy's cache hits down by tree level per
// scheme: what fraction of requests each level serves (plus the origin).
// It visualizes the §4.2 mechanics directly — coordinated caching pulls
// popular objects toward the leaves, MODULO(4) strands everything at the
// leaves and starves levels 1–3, LRU replicates the same hot set at every
// level.
func levelStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	tree := topology.GenerateTree(cfg.Tree)
	depth := tree.Config().Depth

	t := Table{
		Title:  fmt.Sprintf("Hierarchy level study (cache size %.2f%%): share of requests served per level", studySize*100),
		XLabel: "scheme",
		YLabel: "fraction of requests",
	}
	for l := 0; l < depth; l++ {
		t.Columns = append(t.Columns, fmt.Sprintf("L%d", l))
	}
	t.Columns = append(t.Columns, "origin")

	for _, name := range cfg.Schemes {
		sch, err := scheme.New(name)
		if err != nil {
			return Table{}, err
		}
		simr, err := sim.New(sim.Config{
			Scheme:            sch,
			Network:           tree,
			Catalog:           w.Catalog(),
			RelativeCacheSize: studySize,
			DCacheFactor:      cfg.DCacheFactor,
			Seed:              cfg.AttachSeed + 7,
			TrackNodes:        true,
		})
		if err != nil {
			return Table{}, err
		}
		src, err := w.Open()
		if err != nil {
			return Table{}, err
		}
		sum, _ := simr.Run(src, w.Len()/2)

		perLevel := make([]int64, depth)
		for n, st := range simr.NodeStats() {
			perLevel[tree.Level(model.NodeID(n))] += st.Hits
		}
		// NodeStats covers the whole replay including warmup; scale the
		// shares by total hits seen rather than recorded requests to
		// keep them comparable across schemes.
		var totalHits int64
		for _, h := range perLevel {
			totalHits += h
		}
		row := Row{Label: name}
		if totalHits == 0 {
			row.Values = make([]float64, depth+1)
			row.Values[depth] = 1
		} else {
			// Convert hit counts into request shares using the
			// run's hit ratio: share(level) = hitRatio ×
			// hits(level)/totalHits; origin gets the rest.
			for _, h := range perLevel {
				row.Values = append(row.Values, sum.HitRatio*float64(h)/float64(totalHits))
			}
			row.Values = append(row.Values, 1-sum.HitRatio)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
