package experiment

import (
	"fmt"
	"io"

	"cascade/internal/scheme"
	"cascade/internal/sim"
)

// costModelStudy exercises the §2 claim that the analytical model "is
// independent of the cost function": the coordinated scheme is run with its
// generic cost interpreted as latency, bandwidth (byte×hops) and hop count
// in turn, and all three measures are reported for each run. Optimizing a
// measure should (weakly) win on that measure's column.
func costModelStudy(arch Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("Cost-model study (%s, cache size %.2f%%): coordinated caching optimizing different measures",
			arch, studySize*100),
		XLabel:  "optimized cost",
		YLabel:  "resulting metrics",
		Columns: []string{"latency (s)", "traffic (B*hops)", "hops"},
	}
	for _, m := range []sim.CostModel{sim.CostLatency, sim.CostBandwidth, sim.CostHops} {
		simr, err := sim.New(sim.Config{
			Scheme:            scheme.NewCoordinated(),
			Network:           net,
			Catalog:           w.Catalog(),
			RelativeCacheSize: studySize,
			DCacheFactor:      cfg.DCacheFactor,
			Seed:              cfg.AttachSeed + 7,
			CostModel:         m,
		})
		if err != nil {
			return Table{}, err
		}
		src, err := w.Open()
		if err != nil {
			return Table{}, err
		}
		s, _ := simr.Run(src, w.Len()/2)
		t.Rows = append(t.Rows, Row{
			Label:  m.String(),
			Values: []float64{s.AvgLatency, s.AvgByteHops, s.AvgHops},
		})
	}
	return t, nil
}
