package experiment

import (
	"fmt"

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

// TreeShapeStudy backs the paper's §3.2 remark that "we have tested a wide
// range of d and g values and observed similar trends in the relative
// performance": it sweeps the hierarchy's delay growth factor g (and
// optionally depth/fanout via cfg.Tree) and reports, per g, the latency of
// LRU and COORD plus COORD's relative improvement. The trend — COORD best,
// improvement roughly stable — must hold across the sweep.
func TreeShapeStudy(cfg Config, growths []float64, size float64) (Table, error) {
	cfg.setDefaults()
	if len(growths) == 0 {
		growths = []float64{2, 3, 5, 8, 12}
	}
	if size <= 0 {
		size = 0.01
	}
	w := cfg.workload()
	t := Table{
		Title: fmt.Sprintf("Hierarchy delay-growth study (depth %d, fanout %d, cache size %.2f%%)",
			defaultedTree(cfg).Depth, defaultedTree(cfg).Fanout, size*100),
		XLabel:  "growth g",
		YLabel:  "latency (s) / relative improvement",
		Columns: []string{"LRU lat", "COORD lat", "COORD gain"},
	}
	for _, g := range growths {
		tc := cfg.Tree
		tc.Growth = g
		net := topology.GenerateTree(tc)
		lru, err := runCellOn(cfg, scheme.NewLRU(), net, w, size)
		if err != nil {
			return Table{}, err
		}
		crd, err := runCellOn(cfg, scheme.NewCoordinated(), net, w, size)
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

// ZipfStudy backs the §3.1 argument that results hold for Zipf-like
// workloads generally: it sweeps the popularity exponent θ and reports the
// latency of LRU and COORD on the en-route architecture. COORD's advantage
// should persist across realistic θ (0.6–0.9, Breslau et al. [4]).
func ZipfStudy(cfg Config, thetas []float64, size float64) (Table, error) {
	cfg.setDefaults()
	if len(thetas) == 0 {
		thetas = []float64{0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if size <= 0 {
		size = 0.01
	}
	net := cfg.Network(EnRoute)
	t := Table{
		Title:   fmt.Sprintf("Workload Zipf-exponent study (en-route, cache size %.2f%%)", size*100),
		XLabel:  "theta",
		YLabel:  "latency (s) / relative improvement",
		Columns: []string{"LRU lat", "COORD lat", "COORD gain"},
	}
	for _, theta := range thetas {
		tcfg := cfg.Trace
		tcfg.ZipfTheta = theta
		w := syntheticWorkload(trace.NewGenerator(tcfg))
		lru, err := runCellOn(cfg, scheme.NewLRU(), net, w, size)
		if err != nil {
			return Table{}, err
		}
		crd, err := runCellOn(cfg, scheme.NewCoordinated(), net, w, size)
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

// runCellOn is runCell against an explicit network (the sensitivity studies
// regenerate topologies per row).
func runCellOn(cfg Config, sch scheme.Scheme, net topology.Network, w Workload, size float64) (Cell, error) {
	return runCell(cfg, sch, net, w, size)
}

// LocalityStudy sweeps the workload's community-of-interest strength and
// reports LRU vs MODULO vs COORD latency and byte hit ratio on the
// en-route architecture. Locality concentrates each client community on
// its own popular set, which is the trace property that separates
// placement-aware schemes (it also explains why flat synthetic workloads
// understate some of the paper's MODULO observations — see EXPERIMENTS.md).
func LocalityStudy(cfg Config, localities []float64, size float64) (Table, error) {
	cfg.setDefaults()
	if len(localities) == 0 {
		localities = []float64{0, 0.25, 0.5, 0.75, 0.95}
	}
	if size <= 0 {
		size = 0.01
	}
	net := cfg.Network(EnRoute)
	t := Table{
		Title:   fmt.Sprintf("Workload locality study (en-route, cache size %.2f%%)", size*100),
		XLabel:  "locality",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"LRU lat", "MODULO lat", "COORD lat", "LRU bhr", "MODULO bhr", "COORD bhr"},
	}
	for _, loc := range localities {
		tcfg := cfg.Trace
		tcfg.Locality = loc
		w := syntheticWorkload(trace.NewGenerator(tcfg))
		var lats, bhrs []float64
		for _, sch := range []scheme.Scheme{scheme.NewLRU(), scheme.NewModulo(4), scheme.NewCoordinated()} {
			cell, err := runCell(cfg, sch, net, w, size)
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

// WindowKStudy sweeps the sliding-window size K of the coordinated
// scheme's frequency estimator (the paper adopts K = 3 from Shim et al.
// [17] without re-validating it in the cascaded setting) and reports
// latency and byte hit ratio per K.
func WindowKStudy(arch Arch, cfg Config, ks []int, size float64) (Table, error) {
	cfg.setDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 5, 8}
	}
	if size <= 0 {
		size = 0.01
	}
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("Sliding-window K study (%s, cache size %.2f%%): coordinated caching",
			arch, size*100),
		XLabel:  "K",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"latency (s)", "byte hit ratio"},
	}
	for _, k := range ks {
		sch := scheme.NewCoordinated()
		sch.SetWindowK(k)
		cell, err := runCell(cfg, sch, net, w, size)
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

// PartialDeploymentStudy sweeps the fraction of caches running the
// coordinated protocol (the rest run legacy LRU) — the incremental-rollout
// question the paper leaves open. Latency should interpolate monotonically
// (modulo noise) between the LRU and COORD endpoints, showing benefit from
// the very first coordinated nodes.
func PartialDeploymentStudy(arch Arch, cfg Config, fractions []float64, size float64) (Table, error) {
	cfg.setDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if size <= 0 {
		size = 0.01
	}
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("Partial deployment study (%s, cache size %.2f%%): coordinated participation sweep",
			arch, size*100),
		XLabel:  "participation",
		YLabel:  "latency (s) / byte hit ratio",
		Columns: []string{"latency (s)", "byte hit ratio"},
	}
	for _, frac := range fractions {
		cell, err := runCell(cfg, scheme.NewPartial(frac, cfg.AttachSeed+11), net, w, size)
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
