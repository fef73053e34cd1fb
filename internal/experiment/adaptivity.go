package experiment

import (
	"fmt"
	"io"

	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/trace"
)

// adaptivityStudy injects a flash crowd (a complete popularity regime
// change) halfway through the workload and reports average latency per
// twelfth of the trace for each scheme on the en-route architecture, at
// cache size 3% — how quickly each recovers once its cached state is
// suddenly worthless. The paper evaluates steady state only; this study
// probes the transient that follows the kind of popularity shifts real
// content distribution sees.
func adaptivityStudy(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	const arch, size, windows = EnRoute, 0.03, 12
	// Resolve workload defaults (Duration in particular) through a probe
	// generator, then schedule the flash crowd at the halfway point.
	tcfg := trace.NewGenerator(cfg.Trace).Config()
	tcfg.FlashTime = tcfg.Duration / 2
	window := tcfg.Duration / float64(windows)
	net := cfg.Network(arch)

	t := Table{
		Title: fmt.Sprintf("Flash-crowd adaptivity (%s, cache size %.2f%%): latency per %.0f-minute window; regime change at t=%.1fh",
			arch, size*100, window/60, tcfg.FlashTime/3600),
		XLabel:  "window start",
		YLabel:  "latency (s)",
		Columns: cfg.Schemes,
	}

	series := make([][]float64, 0, len(cfg.Schemes))
	var starts []float64
	for _, name := range cfg.Schemes {
		sch, err := scheme.New(name)
		if err != nil {
			return Table{}, err
		}
		gen := trace.NewGenerator(tcfg)
		simr, err := sim.New(sim.Config{
			Scheme:            sch,
			Network:           net,
			Catalog:           gen.Catalog(),
			RelativeCacheSize: size,
			DCacheFactor:      cfg.DCacheFactor,
			Seed:              cfg.AttachSeed + 7,
		})
		if err != nil {
			return Table{}, err
		}
		ws := simr.RunTimeline(gen, window)
		var lat []float64
		for _, w := range ws {
			lat = append(lat, w.Summary.AvgLatency)
			if len(series) == 0 {
				starts = append(starts, w.Start)
			}
		}
		series = append(series, lat)
	}
	for wi, start := range starts {
		row := Row{Label: fmt.Sprintf("%.1fh", start/3600)}
		for _, lat := range series {
			v := 0.0
			if wi < len(lat) {
				v = lat[wi]
			}
			row.Values = append(row.Values, v)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
