package experiment

import (
	"fmt"
	"math"
)

// Replicate runs the same sweep under R different seeds (workload,
// topology and attachment all reseeded) and aggregates per-cell means and
// standard deviations for one figure's metric. The paper reports one trace
// day and one sample topology but argues the trends hold across both; this
// harness quantifies that claim with error bars.
func Replicate(arch Arch, cfg Config, fig Figure, runs int) (Table, error) {
	cfg.setDefaults()
	if runs < 1 {
		runs = 3
	}
	if fig.Arch != arch {
		return Table{}, fmt.Errorf("experiment: figure %s is for %s, not %s", fig.ID, fig.Arch, arch)
	}

	// values[sizeIdx][schemeIdx] collects one value per run.
	values := make([][][]float64, len(cfg.CacheSizes))
	for i := range values {
		values[i] = make([][]float64, len(cfg.Schemes))
	}
	for run := 0; run < runs; run++ {
		rcfg := cfg
		rcfg.Trace.Seed = cfg.Trace.Seed + int64(run)*1009
		rcfg.TopoSeed = cfg.TopoSeed + int64(run)*1013
		rcfg.AttachSeed = cfg.AttachSeed + int64(run)*1019
		rcfg.Workload = nil // force a fresh synthetic workload per seed
		if cfg.Workload != nil {
			// A fixed recorded trace is replayed as-is; only
			// topology and attachment vary.
			rcfg.Workload = cfg.Workload
		}
		sweep, err := RunSweep(arch, rcfg, nil)
		if err != nil {
			return Table{}, err
		}
		for si, size := range cfg.CacheSizes {
			for ci, name := range cfg.Schemes {
				cell, ok := sweep.Cell(size, name)
				if !ok {
					return Table{}, fmt.Errorf("experiment: missing replicated cell %v/%s", size, name)
				}
				values[si][ci] = append(values[si][ci], fig.Extract(cell.Summary))
			}
		}
	}

	t := Table{
		Title:  fmt.Sprintf("%s — mean ± stdev over %d seeds", fig.Title, runs),
		XLabel: "cache size",
		YLabel: fig.YLabel,
	}
	for _, name := range cfg.Schemes {
		t.Columns = append(t.Columns, name+" mean", name+" sd")
	}
	for si, size := range cfg.CacheSizes {
		row := Row{Label: fmt.Sprintf("%.2f%%", size*100)}
		for ci := range cfg.Schemes {
			m, sd := meanStdev(values[si][ci])
			row.Values = append(row.Values, m, sd)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func meanStdev(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
