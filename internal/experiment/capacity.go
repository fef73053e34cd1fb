package experiment

import (
	"fmt"
	"io"

	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/topology"
)

// capacityStudy redistributes a fixed total cache budget across the
// hierarchy's levels — uniform (the paper's setup), leaf-heavy, root-heavy
// and delay-proportional — and reports LRU and COORD latency under each
// profile. It extends the paper's uniform-sizing evaluation to the
// capacity-planning question deployments actually face, and shows how much
// coordinated placement compensates for (or exploits) skewed provisioning.
func capacityStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	tree := topology.GenerateTree(cfg.Tree)
	depth := tree.Config().Depth

	profiles := []struct {
		name   string
		weight func(level int) float64
	}{
		{"uniform", func(int) float64 { return 1 }},
		{"leaf-heavy", func(l int) float64 {
			if l == 0 {
				return 4
			}
			return 1
		}},
		{"root-heavy", func(l int) float64 {
			if l == depth-1 {
				return 4
			}
			return 1
		}},
		{"delay-proportional", func(l int) float64 { return tree.LinkDelay(l) }},
	}

	t := Table{
		Title: fmt.Sprintf("Capacity allocation study (hierarchy, total budget = %.2f%% x nodes)",
			studySize*100),
		XLabel:  "profile",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"LRU lat", "COORD lat", "LRU bhr", "COORD bhr"},
	}
	for _, prof := range profiles {
		var lats, bhrs []float64
		for _, mk := range []func() scheme.Scheme{
			func() scheme.Scheme { return scheme.NewLRU() },
			func() scheme.Scheme { return scheme.NewCoordinated() },
		} {
			weightFn := prof.weight
			simr, err := sim.New(sim.Config{
				Scheme:            mk(),
				Network:           tree,
				Catalog:           w.Catalog(),
				RelativeCacheSize: studySize,
				DCacheFactor:      cfg.DCacheFactor,
				Seed:              cfg.AttachSeed + 7,
				CapacityWeights: func(n model.NodeID) float64 {
					return weightFn(tree.Level(n))
				},
			})
			if err != nil {
				return Table{}, err
			}
			src, err := w.Open()
			if err != nil {
				return Table{}, err
			}
			s, _ := simr.Run(src, w.Len()/2)
			lats = append(lats, s.AvgLatency)
			bhrs = append(bhrs, s.ByteHitRatio)
		}
		t.Rows = append(t.Rows, Row{Label: prof.name, Values: append(lats, bhrs...)})
	}
	return t, nil
}
