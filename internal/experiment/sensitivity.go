package experiment

import (
	"fmt"
	"io"

	"cascade/internal/scheme"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// relImprovement returns the relative latency improvement of the last
// scheme in the cell set over the first (e.g. COORD over LRU).
func relImprovement(base, better float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - better) / base
}

// treeShapeStudy backs the paper's §3.2 remark that "we have tested a wide
// range of d and g values and observed similar trends in the relative
// performance": it sweeps the hierarchy's delay growth factor g over 2–12
// (depth and fanout from cfg.Tree) and reports, per g, the latency of LRU
// and COORD plus COORD's relative improvement. The trend — COORD best,
// improvement roughly stable — must hold across the sweep.
func treeShapeStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	t := Table{
		Title: fmt.Sprintf("Hierarchy delay-growth study (depth %d, fanout %d, cache size %.2f%%)",
			defaultedTree(cfg).Depth, defaultedTree(cfg).Fanout, studySize*100),
		XLabel:  "growth g",
		YLabel:  "latency (s) / relative improvement",
		Columns: []string{"LRU lat", "COORD lat", "COORD gain"},
	}
	for _, g := range []float64{2, 3, 5, 8, 12} {
		tc := cfg.Tree
		tc.Growth = g
		net := topology.GenerateTree(tc)
		lru, err := runCell(cfg, scheme.NewLRU(), net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		crd, err := runCell(cfg, scheme.NewCoordinated(), net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("g=%g", g),
			Values: []float64{
				lru.Summary.AvgLatency,
				crd.Summary.AvgLatency,
				relImprovement(lru.Summary.AvgLatency, crd.Summary.AvgLatency),
			},
		})
	}
	return t, nil
}

// defaultedTree returns the tree config with defaults applied, for titles.
func defaultedTree(cfg Config) topology.TreeConfig {
	tc := cfg.Tree
	if tc.Depth <= 0 {
		tc = topology.DefaultTreeConfig()
	}
	return tc
}

// zipfStudy backs the §3.1 argument that results hold for Zipf-like
// workloads generally: it sweeps the popularity exponent θ over 0.6–1.0 and
// reports the latency of LRU and COORD on the en-route architecture.
// COORD's advantage should persist across realistic θ (0.6–0.9, Breslau et
// al. [4]).
func zipfStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	net := cfg.Network(EnRoute)
	t := Table{
		Title:   fmt.Sprintf("Workload Zipf-exponent study (en-route, cache size %.2f%%)", studySize*100),
		XLabel:  "theta",
		YLabel:  "latency (s) / relative improvement",
		Columns: []string{"LRU lat", "COORD lat", "COORD gain"},
	}
	for _, theta := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		tcfg := cfg.Trace
		tcfg.ZipfTheta = theta
		w := syntheticWorkload(trace.NewGenerator(tcfg))
		lru, err := runCell(cfg, scheme.NewLRU(), net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		crd, err := runCell(cfg, scheme.NewCoordinated(), net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%.1f", theta),
			Values: []float64{
				lru.Summary.AvgLatency,
				crd.Summary.AvgLatency,
				relImprovement(lru.Summary.AvgLatency, crd.Summary.AvgLatency),
			},
		})
	}
	return t, nil
}

// localityStudy sweeps the workload's community-of-interest strength over
// 0–0.95 and reports LRU vs MODULO vs COORD latency and byte hit ratio on
// the en-route architecture. Locality concentrates each client community on
// its own popular set, which is the trace property that separates
// placement-aware schemes (it also explains why flat synthetic workloads
// understate some of the paper's MODULO observations — see EXPERIMENTS.md).
func localityStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	net := cfg.Network(EnRoute)
	t := Table{
		Title:   fmt.Sprintf("Workload locality study (en-route, cache size %.2f%%)", studySize*100),
		XLabel:  "locality",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"LRU lat", "MODULO lat", "COORD lat", "LRU bhr", "MODULO bhr", "COORD bhr"},
	}
	for _, loc := range []float64{0, 0.25, 0.5, 0.75, 0.95} {
		tcfg := cfg.Trace
		tcfg.Locality = loc
		w := syntheticWorkload(trace.NewGenerator(tcfg))
		var lats, bhrs []float64
		for _, sch := range []scheme.Scheme{scheme.NewLRU(), scheme.NewModulo(4), scheme.NewCoordinated()} {
			cell, err := runCell(cfg, sch, net, w, studySize)
			if err != nil {
				return Table{}, err
			}
			lats = append(lats, cell.Summary.AvgLatency)
			bhrs = append(bhrs, cell.Summary.ByteHitRatio)
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%.2f", loc),
			Values: append(lats, bhrs...),
		})
	}
	return t, nil
}

// windowKStudy sweeps the sliding-window size K of the coordinated
// scheme's frequency estimator over 1–8 (the paper adopts K = 3 from Shim
// et al. [17] without re-validating it in the cascaded setting) and reports
// latency and byte hit ratio per K on the en-route architecture.
func windowKStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	const arch = EnRoute
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("Sliding-window K study (%s, cache size %.2f%%): coordinated caching",
			arch, studySize*100),
		XLabel:  "K",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"latency (s)", "byte hit ratio"},
	}
	for _, k := range []int{1, 2, 3, 5, 8} {
		sch := scheme.NewCoordinated()
		sch.SetWindowK(k)
		cell, err := runCell(cfg, sch, net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%d", k),
			Values: []float64{cell.Summary.AvgLatency, cell.Summary.ByteHitRatio},
		})
	}
	return t, nil
}

// partialDeploymentStudy sweeps the fraction of the en-route caches running
// the coordinated protocol (the rest run legacy LRU) from 0 to 1 — the
// incremental-rollout question the paper leaves open. Latency should interpolate monotonically
// (modulo noise) between the LRU and COORD endpoints, showing benefit from
// the very first coordinated nodes.
func partialDeploymentStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	const arch = EnRoute
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("Partial deployment study (%s, cache size %.2f%%): coordinated participation sweep",
			arch, studySize*100),
		XLabel:  "participation",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"latency (s)", "byte hit ratio"},
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cell, err := runCell(cfg, scheme.NewPartial(frac, cfg.AttachSeed+11), net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%.0f%%", frac*100),
			Values: []float64{cell.Summary.AvgLatency, cell.Summary.ByteHitRatio},
		})
	}
	return t, nil
}
