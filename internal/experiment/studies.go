package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/topology"
)

// Study is one experiment beside the paper's figures: Table 1, a study of
// the textual findings, or an operational replay. Its parameters are fixed;
// only the architecture and the shared Config vary.
type Study struct {
	Name    string // its cascadesim -exp name
	PerArch bool   // runs once per architecture; otherwise it picks its own
	InAll   bool   // part of cascadesim -exp all, with a committed results/ CSV
	// Run builds the study's table, writing progress lines to log. A study
	// that gates its own result (ledger, rolling) fails with an error.
	Run func(arch Arch, cfg Config, log io.Writer) (Table, error)
}

// Stem names the study's exported files: the name with "-" turned into
// "_", plus "_<arch>" for a per-architecture study.
func (s Study) Stem(arch Arch) string {
	stem := strings.ReplaceAll(s.Name, "-", "_")
	if s.PerArch {
		stem += "_" + string(arch)
	}
	return stem
}

// Studies lists every study in the order cascadesim runs them. Adding a
// study is adding an entry.
var Studies = []Study{
	{"table1", false, true, table1},
	{"radius", true, true, radiusStudy},
	{"dcache", true, true, dcacheStudy},
	{"overhead", true, true, overheadStudy},
	{"freshness-frontier", true, true, freshnessFrontier},
	{"costmodel", true, true, costModelStudy},
	{"treeshape", false, true, treeShapeStudy},
	{"zipf", false, true, zipfStudy},
	{"locality", false, true, localityStudy},
	{"levels", false, true, levelStudy},
	{"adaptivity", false, true, adaptivityStudy},
	{"capacity", false, true, capacityStudy},
	{"windowk", false, true, windowKStudy},
	{"partial", false, true, partialDeploymentStudy},
	{"analysis", false, true, analysisStudy},
	{"ledger", true, false, ledgerStudy},
	{"chaos", true, false, chaosStudy},
	{"rolling", true, false, rollingStudy},
}

// studySize is the relative cache size a study runs at when it does not
// sweep cfg.CacheSizes (adaptivity runs at 0.03, ledger at the first of
// cfg.CacheSizes).
const studySize = 0.01

// runCell runs one (scheme, size) simulation against a prepared workload
// and network. The paper's methodology applies: the first half of the
// trace warms the caches, statistics cover the second half.
func runCell(cfg Config, sch scheme.Scheme, net topology.Network, w Workload, size float64) (Cell, error) {
	simr, err := sim.New(sim.Config{
		Scheme:            sch,
		Network:           net,
		Catalog:           w.Catalog(),
		RelativeCacheSize: size,
		DCacheFactor:      cfg.DCacheFactor,
		Seed:              cfg.AttachSeed + 7,
	})
	if err != nil {
		return Cell{}, err
	}
	src, err := w.Open()
	if err != nil {
		return Cell{}, err
	}
	summary, _ := simr.Run(src, w.Len()/2)
	return Cell{Scheme: sch.Name(), CacheSize: size, Summary: summary}, nil
}

// radiusStudy reproduces the MODULO radius sensitivity discussed in
// §4.1/§4.2: average access latency for radii 1–6, per cache size. The
// paper finds radius 4 best under its en-route settings while any radius
// above 1 wastes the upper hierarchy levels.
func radiusStudy(arch Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title:  fmt.Sprintf("MODULO cache-radius study (%s): average access latency", arch),
		XLabel: "radius",
		YLabel: "latency (s)",
	}
	for _, size := range cfg.CacheSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%.2f%%", size*100))
	}
	for r := 1; r <= 6; r++ {
		row := Row{Label: fmt.Sprintf("%d", r)}
		for _, size := range cfg.CacheSizes {
			cell, err := runCell(cfg, scheme.NewModulo(r), net, w, size)
			if err != nil {
				return Table{}, err
			}
			row.Values = append(row.Values, cell.Summary.AvgLatency)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// dcacheStudy reproduces the §3.2 d-cache sizing observation: coordinated
// caching's latency as the d-cache grows from 0.5× to 10× the number of
// objects the main cache holds (the paper settles on 3×).
func dcacheStudy(arch Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("d-cache sizing study (%s, cache size %.2f%%): coordinated caching",
			arch, studySize*100),
		XLabel:  "d-cache factor",
		YLabel:  "per scheme metric",
		Columns: []string{"latency (s)", "byte hit ratio"},
	}
	for _, f := range []float64{0.5, 1, 2, 3, 5, 10} {
		c := cfg
		c.DCacheFactor = f
		cell, err := runCell(c, scheme.NewCoordinated(), net, w, studySize)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%gx", f),
			Values: []float64{cell.Summary.AvgLatency, cell.Summary.ByteHitRatio},
		})
	}
	return t, nil
}

// overheadStudy quantifies the coordinated protocol's piggyback overhead
// (§2.3–2.4): descriptor bytes carried per request next to the payload
// bytes moved, across cache sizes.
func overheadStudy(arch Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title:   fmt.Sprintf("Coordinated piggyback overhead (%s)", arch),
		XLabel:  "cache size",
		YLabel:  "per request",
		Columns: []string{"piggyback B/req", "payload KB/req", "overhead %"},
	}
	for _, size := range cfg.CacheSizes {
		cell, err := runCell(cfg, scheme.NewCoordinated(), net, w, size)
		if err != nil {
			return Table{}, err
		}
		s := cell.Summary
		overheadPct := 0.0
		if s.AvgSize > 0 {
			overheadPct = 100 * s.AvgPiggyback / s.AvgSize
		}
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("%.2f%%", size*100),
			Values: []float64{s.AvgPiggyback, s.AvgSize / 1024, overheadPct},
		})
	}
	return t, nil
}

// table1 generates an en-route topology and reports its characteristics in
// the format of the paper's Table 1.
func table1(_ Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	e := topology.GenerateTiers(cfg.Tiers, rand.New(rand.NewSource(cfg.TopoSeed+1)))
	d := e.Describe()
	t := Table{
		Title:   "Table 1: System Parameters for En-Route Architecture",
		XLabel:  "parameter",
		Columns: []string{"value"},
		Rows: []Row{
			{Label: "Total number of nodes", Values: []float64{float64(d.TotalNodes)}},
			{Label: "Number of WAN nodes", Values: []float64{float64(d.WANNodes)}},
			{Label: "Number of MAN nodes", Values: []float64{float64(d.MANNodes)}},
			{Label: "Number of network links", Values: []float64{float64(d.Links)}},
			{Label: "Average delay of WAN links (s)", Values: []float64{d.AvgWANDelay}},
			{Label: "Average delay of MAN links (s)", Values: []float64{d.AvgMANDelay}},
			{Label: "Average route length (hops)", Values: []float64{d.AvgRouteHops}},
		},
	}
	return t, nil
}
