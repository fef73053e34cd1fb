// Package experiment regenerates every table and figure of the paper's
// evaluation (§3–4). A Sweep runs (cache size × scheme) simulations for one
// architecture; each figure is a projection of a sweep onto one metric.
// Table 1, the studies of the paper's textual findings (MODULO's radius
// sensitivity, d-cache sizing, …) and the operational replays are the
// entries of one table, Studies.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"cascade/internal/metrics"
	"cascade/internal/scheme"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// Arch selects the cascaded caching architecture.
type Arch string

// The two architectures of §3.2.
const (
	EnRoute   Arch = "enroute"
	Hierarchy Arch = "hierarchy"
)

// Config parameterizes a full evaluation. Zero values select defaults that
// mirror the paper's setup at a scale that runs in seconds per cell.
type Config struct {
	Trace trace.Config // synthetic workload (see trace.Config defaults)
	// Workload overrides the synthetic generator, e.g. with
	// FileWorkload to replay a recorded trace. When nil, a generator
	// built from Trace is used.
	Workload Workload
	Tiers    topology.TiersConfig // en-route topology (Table 1 defaults)
	Tree     topology.TreeConfig  // hierarchy (depth 4, fanout 3, d=8ms, g=5)

	CacheSizes []float64 // relative cache sizes; default {0.1%, 0.3%, 1%, 3%, 10%}
	Schemes    []string  // scheme names; default {LRU, MODULO(4), LNC-R, COORD}

	DCacheFactor float64 // d-cache entries per main-cache object slot (default 3)
	TopoSeed     int64   // en-route topology seed
	AttachSeed   int64   // client/server attachment seed

	// Concurrency bounds how many sweep cells run in parallel (cells are
	// fully independent). Zero selects GOMAXPROCS; 1 forces sequential
	// execution.
	Concurrency int
}

func (c *Config) setDefaults() {
	if len(c.CacheSizes) == 0 {
		c.CacheSizes = []float64{0.001, 0.003, 0.01, 0.03, 0.1}
	}
	if len(c.Schemes) == 0 {
		c.Schemes = []string{"LRU", "MODULO(4)", "LNC-R", "COORD"}
	}
	if c.DCacheFactor == 0 {
		c.DCacheFactor = 3
	}
}

// Cell is one simulation result: one scheme at one cache size.
type Cell struct {
	Scheme    string
	CacheSize float64
	Summary   metrics.Summary
}

// Sweep is the full (cache size × scheme) result grid for one architecture.
type Sweep struct {
	Arch       Arch
	Config     Config
	CacheSizes []float64
	Schemes    []string
	Cells      []Cell // row-major: for each cache size, every scheme
}

// Network builds the architecture's topology deterministically from cfg.
func (c Config) Network(arch Arch) topology.Network {
	switch arch {
	case Hierarchy:
		return topology.GenerateTree(c.Tree)
	default:
		return topology.GenerateTiers(c.Tiers, rand.New(rand.NewSource(c.TopoSeed+1)))
	}
}

// workload resolves the configured workload (file or synthetic).
func (c Config) workload() Workload {
	if c.Workload != nil {
		return c.Workload
	}
	return syntheticWorkload(trace.NewGenerator(c.Trace))
}

// RunSweep simulates every (cache size, scheme) pair for one architecture.
// All cells share the same topology, workload and attachment assignment, so
// differences between cells are attributable to the scheme and cache size
// alone. Cells are independent and run concurrently up to
// Config.Concurrency; results are deterministic regardless. The optional
// progress callback is invoked as cells complete (from the collecting
// goroutine only).
func RunSweep(arch Arch, cfg Config, progress func(Cell)) (*Sweep, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)

	type job struct {
		size float64
		name string
	}
	var jobs []job
	for _, size := range cfg.CacheSizes {
		for _, name := range cfg.Schemes {
			// Validate scheme names up front so errors surface
			// before any simulation runs.
			if _, err := scheme.New(name); err != nil {
				return nil, err
			}
			jobs = append(jobs, job{size, name})
		}
	}

	workers := cfg.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	cells := make([]Cell, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sch, err := scheme.New(jobs[i].name)
				if err != nil {
					errs[i] = err
					continue
				}
				cells[i], errs[i] = runCell(cfg, sch, net, w, jobs[i].size)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	sw := &Sweep{Arch: arch, Config: cfg, CacheSizes: cfg.CacheSizes, Schemes: cfg.Schemes}
	for i := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		sw.Cells = append(sw.Cells, cells[i])
		if progress != nil {
			progress(cells[i])
		}
	}
	return sw, nil
}

// Cell returns the result for a (cache size, scheme) pair.
func (s *Sweep) Cell(size float64, schemeName string) (Cell, bool) {
	for _, c := range s.Cells {
		if c.CacheSize == size && c.Scheme == schemeName {
			return c, true
		}
	}
	return Cell{}, false
}

// Figure describes one plot of the paper: which architecture's sweep it
// projects and which metric it extracts.
type Figure struct {
	ID      string
	Title   string
	Arch    Arch
	YLabel  string
	Extract func(metrics.Summary) float64
}

// Figures lists every figure of the paper's evaluation, in paper order.
var Figures = []Figure{
	{"fig6a", "Figure 6(a): Average Access Latency vs Cache Size (En-Route)", EnRoute,
		"latency (s)", func(s metrics.Summary) float64 { return s.AvgLatency }},
	{"fig6b", "Figure 6(b): Average Response Ratio vs Cache Size (En-Route)", EnRoute,
		"latency (s) per KB", func(s metrics.Summary) float64 { return s.AvgRespRatio }},
	{"fig7a", "Figure 7(a): Byte Hit Ratio vs Cache Size (En-Route)", EnRoute,
		"byte hit ratio", func(s metrics.Summary) float64 { return s.ByteHitRatio }},
	{"fig7b", "Figure 7(b): Network Traffic vs Cache Size (En-Route)", EnRoute,
		"byte*hops per request", func(s metrics.Summary) float64 { return s.AvgByteHops }},
	{"fig8a", "Figure 8(a): Hops Traveled vs Cache Size (En-Route)", EnRoute,
		"hops per request", func(s metrics.Summary) float64 { return s.AvgHops }},
	{"fig8b", "Figure 8(b): Cache Read/Write Load vs Cache Size (En-Route)", EnRoute,
		"bytes per request", func(s metrics.Summary) float64 { return s.AvgLoad }},
	{"fig9a", "Figure 9(a): Average Access Latency vs Cache Size (Hierarchical)", Hierarchy,
		"latency (s)", func(s metrics.Summary) float64 { return s.AvgLatency }},
	{"fig9b", "Figure 9(b): Average Response Ratio vs Cache Size (Hierarchical)", Hierarchy,
		"latency (s) per KB", func(s metrics.Summary) float64 { return s.AvgRespRatio }},
	{"fig10a", "Figure 10(a): Byte Hit Ratio vs Cache Size (Hierarchical)", Hierarchy,
		"byte hit ratio", func(s metrics.Summary) float64 { return s.ByteHitRatio }},
	{"fig10b", "Figure 10(b): Cache Read/Write Load vs Cache Size (Hierarchical)", Hierarchy,
		"bytes per request", func(s metrics.Summary) float64 { return s.AvgLoad }},
}

// FigureByID returns the figure definition for an ID like "fig6a".
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Project renders one figure from the sweep as a table: one row per cache
// size, one column per scheme.
func (s *Sweep) Project(fig Figure) Table {
	if fig.Arch != s.Arch {
		panic(fmt.Sprintf("experiment: figure %s is for %s, sweep is %s", fig.ID, fig.Arch, s.Arch))
	}
	t := Table{
		Title:   fig.Title,
		XLabel:  "cache size",
		YLabel:  fig.YLabel,
		Columns: s.Schemes,
	}
	for _, size := range s.CacheSizes {
		row := Row{Label: fmt.Sprintf("%.2f%%", size*100)}
		for _, name := range s.Schemes {
			cell, ok := s.Cell(size, name)
			if !ok {
				panic(fmt.Sprintf("experiment: missing cell %v/%s", size, name))
			}
			row.Values = append(row.Values, fig.Extract(cell.Summary))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
