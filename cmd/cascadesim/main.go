// Command cascadesim regenerates the tables and figures of Tang & Chanson
// (ICDE 2003) by trace-driven simulation.
//
// Usage:
//
//	cascadesim [flags]
//
// Examples:
//
//	cascadesim -list                        # what can be regenerated
//	cascadesim -exp all                     # every table, figure and study
//	cascadesim -exp fig6a,fig7a             # selected figures
//	cascadesim -exp radius -arch hierarchy  # MODULO radius study
//	cascadesim -exp figs -csv out/ -svg figs/ -html report.html
//	cascadesim -exp figs -baseline golden/  # regression drift detection
//	cascadesim -exp fig6a -replicate 5      # mean ± stdev over seeds
//	cascadesim -span-dump 256 -span-sample 0.1  # dump per-node span rings (both passes, with f/l/tag, Δcost, penalty attributes) as JSON
//
// The workload is synthetic (see DESIGN.md for the substitution rationale)
// unless -trace FILE replays a recorded trace in the cascade text format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"cascade"
)

// namedTable pairs a result table with its export name.
type namedTable struct {
	name  string
	table cascade.ResultTable
}

// simJob is one independently runnable unit of the requested experiments.
// Jobs produce their tables without touching shared state, so the -parallel
// mode can run them concurrently and still emit in definition order.
type simJob struct {
	label string
	run   func() ([]namedTable, error)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cascadesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exps    = flag.String("exp", "all", "experiments: all, figs, table1, radius, dcache, overhead, freshness-frontier, treeshape, zipf, costmodel, locality, levels, adaptivity, capacity, windowk, partial, analysis, chaos, ledger, rolling, or comma-separated figure IDs (fig6a..fig10b)")
		arch    = flag.String("arch", "both", "architecture for studies: enroute, hierarchy or both")
		sizes   = flag.String("sizes", "0.001,0.003,0.01,0.03,0.1", "relative cache sizes")
		schemes = flag.String("schemes", "LRU,MODULO(4),LNC-R,COORD", "schemes to compare")

		objects  = flag.Int("objects", 20000, "synthetic workload: object universe size")
		requests = flag.Int("requests", 400000, "synthetic workload: number of requests")
		clients  = flag.Int("clients", 2000, "synthetic workload: clients")
		servers  = flag.Int("servers", 200, "synthetic workload: origin servers")
		duration = flag.Float64("duration", 86400, "synthetic workload: span in seconds")
		zipf     = flag.Float64("zipf", 0.8, "synthetic workload: Zipf exponent")
		locality = flag.Float64("locality", 0, "synthetic workload: community-of-interest strength [0,1]")
		seed     = flag.Int64("seed", 1, "master seed (workload, topology, attachment)")

		traceFile  = flag.String("trace", "", "replay a recorded trace file instead of the synthetic workload")
		spanCap    = flag.Int("span-dump", 0, "replay with cascade-wide span tracing and per-node span rings of capacity N, dump every node's ring as JSON (COORD scheme, first -arch and -sizes values) and exit")
		spanSample = flag.Float64("span-sample", 1, "span-dump: tail-sampling rate in [0,1] for unremarkable traces (error/stale/slow traces are always kept)")
		csvDir     = flag.String("csv", "", "directory for CSV export (created if missing)")
		svgDir     = flag.String("svg", "", "directory for SVG figure export (created if missing)")
		htmlOut    = flag.String("html", "", "write a self-contained HTML report of every emitted table")
		chart      = flag.Bool("chart", false, "render ASCII charts next to the tables")
		md         = flag.Bool("md", false, "emit GitHub-flavored markdown instead of aligned text")
		replicate  = flag.Int("replicate", 0, "rerun each figure under N seeds and report mean ± stdev")
		baseline   = flag.String("baseline", "", "directory of previously exported CSVs to compare against (5% tolerance)")
		chaosFrac  = flag.Float64("chaos-frac", 0.2, "chaos study: fraction of nodes crashed mid-trace")
		chaosFail  = flag.Float64("chaos-fail", 0.25, "chaos study: trace fraction at which nodes crash")
		chaosHeal  = flag.Float64("chaos-heal", 0.6, "chaos study: trace fraction at which nodes recover")
		rollBatch  = flag.Float64("rolling-batch", 0.1, "rolling study: fraction of nodes upgraded per batch")
		rollStart  = flag.Float64("rolling-start", 0.25, "rolling study: trace fraction at which the upgrade begins")
		rollEnd    = flag.Float64("rolling-end", 0.75, "rolling study: trace fraction by which every batch has cycled")
		verbose    = flag.Bool("v", false, "print per-cell progress")
		list       = flag.Bool("list", false, "list available experiments, figures and schemes, then exit")
		jobs       = flag.Int("j", 0, "concurrent sweep cells (0 = GOMAXPROCS)")
		parallel   = flag.Bool("parallel", false, "run independent studies concurrently (output order is unchanged)")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cascadesim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cascadesim: memprofile:", err)
			}
		}()
	}

	if *list {
		fmt.Println("figures:")
		for _, f := range cascade.Figures() {
			fmt.Printf("  %-8s %s\n", f.ID, f.Title)
		}
		fmt.Println("studies: table1 radius dcache overhead freshness-frontier costmodel treeshape zipf locality levels adaptivity capacity windowk partial analysis chaos ledger rolling")
		fmt.Printf("schemes: %s\n", strings.Join(cascade.SchemeNames(), ", "))
		return nil
	}

	sizeList, err := parseFloats(*sizes)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	cfg := cascade.ExperimentConfig{
		Trace: cascade.TraceConfig{
			Objects:  *objects,
			Requests: *requests,
			Clients:  *clients,
			Servers:  *servers,
			Duration: *duration,
			Seed:     *seed,
		},
		CacheSizes:  sizeList,
		Schemes:     splitList(*schemes),
		TopoSeed:    *seed,
		AttachSeed:  *seed,
		Concurrency: *jobs,
	}
	cfg.Trace.ZipfTheta = *zipf
	cfg.Trace.Locality = *locality
	if *traceFile != "" {
		w, err := cascade.FileWorkload(*traceFile)
		if err != nil {
			return err
		}
		cfg.Workload = w
		fmt.Fprintf(os.Stderr, "replaying %s: %d objects, %d requests\n",
			*traceFile, len(w.Catalog().Objects), w.Len())
	}

	var archs []cascade.Architecture
	switch *arch {
	case "enroute":
		archs = []cascade.Architecture{cascade.ArchEnRoute}
	case "hierarchy":
		archs = []cascade.Architecture{cascade.ArchHierarchy}
	case "both":
		archs = []cascade.Architecture{cascade.ArchEnRoute, cascade.ArchHierarchy}
	default:
		return fmt.Errorf("-arch: unknown architecture %q", *arch)
	}

	if *spanCap > 0 {
		// Span-dump mode: replay the workload once with cascade-wide span
		// tracing (the replay loop is the edge minting trace IDs), then emit
		// each node's ring of retained protocol-phase spans as JSON.
		a, size := archs[0], sizeList[0]
		snaps, err := cascade.DumpSpanRings(a, cfg, size, *spanCap, *spanSample)
		if err != nil {
			return err
		}
		spans := 0
		for _, s := range snaps {
			spans += len(s.Spans)
		}
		fmt.Fprintf(os.Stderr, "span dump: %d nodes, %d retained spans at sample rate %g (%s, COORD, cache size %.3g)\n",
			len(snaps), spans, *spanSample, a, size)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snaps)
	}

	wantTable1, wantRadius, wantDCache, wantOverhead, wantFreshness := false, false, false, false, false
	wantTreeShape, wantZipf, wantCostModel, wantLocality, wantLevels := false, false, false, false, false
	wantAdaptivity, wantCapacity, wantWindowK, wantPartial := false, false, false, false
	wantAnalysis, wantChaos, wantLedger, wantRolling := false, false, false, false
	var figIDs []string
	for _, e := range splitList(*exps) {
		switch e {
		case "all":
			wantTable1, wantRadius, wantDCache, wantOverhead, wantFreshness = true, true, true, true, true
			wantTreeShape, wantZipf, wantCostModel, wantLocality, wantLevels = true, true, true, true, true
			wantAdaptivity, wantCapacity, wantWindowK, wantPartial = true, true, true, true
			wantAnalysis = true
			figIDs = allFigureIDs()
		case "figs", "figures":
			figIDs = allFigureIDs()
		case "table1":
			wantTable1 = true
		case "radius":
			wantRadius = true
		case "dcache":
			wantDCache = true
		case "overhead":
			wantOverhead = true
		case "freshness", "freshness-frontier":
			wantFreshness = true
		case "treeshape":
			wantTreeShape = true
		case "zipf":
			wantZipf = true
		case "costmodel":
			wantCostModel = true
		case "locality":
			wantLocality = true
		case "levels":
			wantLevels = true
		case "adaptivity":
			wantAdaptivity = true
		case "capacity":
			wantCapacity = true
		case "windowk":
			wantWindowK = true
		case "partial":
			wantPartial = true
		case "analysis":
			wantAnalysis = true
		case "chaos":
			// Failure-aware replay through the live runtime; not part of
			// "all", which regenerates the paper's artifacts only.
			wantChaos = true
		case "ledger":
			// Predicted-vs-realized accounting replay; like chaos, an
			// operational diagnostic rather than a paper artifact, so not
			// part of "all".
			wantLedger = true
		case "rolling":
			// Rolling-upgrade replay through the live runtime's control
			// plane; an operational diagnostic, not part of "all".
			wantRolling = true
		default:
			if _, ok := cascade.FigureByID(e); !ok {
				return fmt.Errorf("-exp: unknown experiment %q", e)
			}
			figIDs = append(figIDs, e)
		}
	}

	driftTotal := 0
	var reportTables []cascade.ResultTable
	emit := func(name string, t cascade.ResultTable) error {
		if *htmlOut != "" {
			reportTables = append(reportTables, t)
		}
		if *md {
			if err := t.Markdown(os.Stdout); err != nil {
				return err
			}
		} else if err := t.Format(os.Stdout); err != nil {
			return err
		}
		if *baseline != "" {
			f, err := os.Open(filepath.Join(*baseline, name+".csv"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "baseline %s: %v\n", name, err)
			} else {
				drifts, err := cascade.CompareBaselineCSV(t, f, 0.05)
				f.Close()
				if err != nil {
					return fmt.Errorf("baseline %s: %w", name, err)
				}
				for _, d := range drifts {
					fmt.Fprintf(os.Stderr, "DRIFT %s %s\n", name, d)
				}
				driftTotal += len(drifts)
			}
		}
		if *chart {
			fmt.Println()
			if err := t.Chart(os.Stdout, 64, 16); err != nil {
				return err
			}
		}
		fmt.Println()
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*svgDir, name+".svg"))
			if err != nil {
				return err
			}
			if err := t.SVG(f, 560, 360); err != nil {
				f.Close()
				return err
			}
			f.Close()
		}
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return t.CSV(f)
	}

	// Each requested experiment becomes a job producing named tables. Jobs
	// are independent (each builds its own workload and simulators from
	// cfg), so -parallel may run them concurrently; tables are emitted in
	// job-definition order either way, keeping stdout byte-identical
	// between the two modes.
	var work []simJob
	addJob := func(label string, run func() ([]namedTable, error)) {
		work = append(work, simJob{label: label, run: run})
	}
	one := func(name string, f func() (cascade.ResultTable, error)) func() ([]namedTable, error) {
		return func() ([]namedTable, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []namedTable{{name, t}}, nil
		}
	}

	if wantTable1 {
		addJob("table1", one("table1", func() (cascade.ResultTable, error) {
			_, t := cascade.Table1(cfg)
			return t, nil
		}))
	}

	// Run at most one sweep per architecture and project all requested
	// figures from it.
	needed := map[cascade.Architecture][]cascade.Figure{}
	for _, id := range figIDs {
		f, _ := cascade.FigureByID(id)
		if archAllowed(f.Arch, archs) {
			needed[f.Arch] = append(needed[f.Arch], f)
		}
	}
	for _, a := range archs {
		a := a
		figs := needed[a]
		if len(figs) == 0 {
			continue
		}
		if *replicate > 1 {
			n := *replicate
			addJob("replicate "+string(a), func() ([]namedTable, error) {
				var out []namedTable
				for _, f := range figs {
					t, err := cascade.Replicate(a, cfg, f, n)
					if err != nil {
						return nil, err
					}
					out = append(out, namedTable{f.ID + "_replicated", t})
				}
				return out, nil
			})
			continue
		}
		addJob("sweep "+string(a), func() ([]namedTable, error) {
			fmt.Fprintf(os.Stderr, "running %s sweep: %d cache sizes x %d schemes...\n",
				a, len(cfg.CacheSizes), len(cfg.Schemes))
			progress := func(c cascade.SweepCell) {
				if *verbose {
					fmt.Fprintf(os.Stderr, "  %-10s size=%.3f%%  latency=%.4fs  bhr=%.3f\n",
						c.Scheme, c.CacheSize*100, c.Summary.AvgLatency, c.Summary.ByteHitRatio)
				}
			}
			sweep, err := cascade.RunSweep(a, cfg, progress)
			if err != nil {
				return nil, err
			}
			out := make([]namedTable, 0, len(figs))
			for _, f := range figs {
				out = append(out, namedTable{f.ID, sweep.Project(f)})
			}
			return out, nil
		})
	}

	for _, a := range archs {
		a := a
		if wantRadius {
			addJob("radius "+string(a), one("radius_"+string(a), func() (cascade.ResultTable, error) {
				return cascade.RadiusStudy(a, cfg, nil)
			}))
		}
		if wantDCache {
			addJob("dcache "+string(a), one("dcache_"+string(a), func() (cascade.ResultTable, error) {
				return cascade.DCacheStudy(a, cfg, nil, 0.01)
			}))
		}
		if wantOverhead {
			addJob("overhead "+string(a), one("overhead_"+string(a), func() (cascade.ResultTable, error) {
				return cascade.OverheadStudy(a, cfg)
			}))
		}
		if wantFreshness {
			addJob("freshness-frontier "+string(a), one("freshness_frontier_"+string(a), func() (cascade.ResultTable, error) {
				return cascade.FreshnessFrontier(a, cfg, nil, 0.01)
			}))
		}
		if wantCostModel {
			addJob("costmodel "+string(a), one("costmodel_"+string(a), func() (cascade.ResultTable, error) {
				return cascade.CostModelStudy(a, cfg, 0.01)
			}))
		}
	}

	if wantTreeShape {
		addJob("treeshape", one("treeshape", func() (cascade.ResultTable, error) {
			return cascade.TreeShapeStudy(cfg, nil, 0.01)
		}))
	}
	if wantZipf {
		addJob("zipf", one("zipf", func() (cascade.ResultTable, error) {
			return cascade.ZipfStudy(cfg, nil, 0.01)
		}))
	}
	if wantLocality {
		addJob("locality", one("locality", func() (cascade.ResultTable, error) {
			return cascade.LocalityStudy(cfg, nil, 0.01)
		}))
	}
	if wantLevels {
		addJob("levels", one("levels", func() (cascade.ResultTable, error) {
			return cascade.LevelStudy(cfg, 0.01)
		}))
	}
	if wantAdaptivity {
		addJob("adaptivity", one("adaptivity", func() (cascade.ResultTable, error) {
			return cascade.AdaptivityStudy(cascade.ArchEnRoute, cfg, 0.03, 12)
		}))
	}
	if wantCapacity {
		addJob("capacity", one("capacity", func() (cascade.ResultTable, error) {
			return cascade.CapacityStudy(cfg, 0.01)
		}))
	}
	if wantWindowK {
		addJob("windowk", one("windowk", func() (cascade.ResultTable, error) {
			return cascade.WindowKStudy(cascade.ArchEnRoute, cfg, nil, 0.01)
		}))
	}
	if wantPartial {
		addJob("partial", one("partial", func() (cascade.ResultTable, error) {
			return cascade.PartialDeploymentStudy(cascade.ArchEnRoute, cfg, nil, 0.01)
		}))
	}
	if wantAnalysis {
		addJob("analysis", one("analysis", func() (cascade.ResultTable, error) {
			return cascade.AnalysisStudy(cfg, 0.01)
		}))
	}
	if wantLedger {
		for _, a := range archs {
			a := a
			addJob("ledger "+string(a), one("ledger_"+string(a), func() (cascade.ResultTable, error) {
				t, report, err := cascade.LedgerStudy(a, cfg, sizeList[0])
				if err != nil {
					return cascade.ResultTable{}, err
				}
				for _, iv := range cascade.AuditInvariants() {
					fmt.Fprintf(os.Stderr, "audit %s %s: %d checks, %d violations\n",
						a, iv, report.Checks[iv.String()], report.Violations[iv.String()])
				}
				if n := report.Total(); n > 0 {
					return cascade.ResultTable{}, fmt.Errorf("ledger %s: %d audit violations", a, n)
				}
				return t, nil
			}))
		}
	}
	if wantChaos {
		for _, a := range archs {
			a := a
			addJob("chaos "+string(a), one("chaos_"+string(a), func() (cascade.ResultTable, error) {
				fmt.Fprintf(os.Stderr, "running %s chaos replay (%.0f%% of nodes crash at %.0f%% of trace)...\n",
					a, *chaosFrac*100, *chaosFail*100)
				res, t, err := cascade.ChaosStudy(cascade.ChaosConfig{
					Arch:         a,
					Base:         cfg,
					FailFraction: *chaosFrac,
					FailAt:       *chaosFail,
					HealAt:       *chaosHeal,
					Seed:         *seed,
				})
				if err != nil {
					return cascade.ResultTable{}, err
				}
				fmt.Fprintf(os.Stderr, "chaos %s: crashed nodes %v, routed around %d hops, %d degraded serves, recovery gap %.1f%%\n",
					a, res.Failed, res.Faulted.Stats.RoutedAround,
					res.Faulted.Stats.OriginFallbacks, res.RecoveryGap()*100)
				return t, nil
			}))
		}
	}
	if wantRolling {
		for _, a := range archs {
			a := a
			addJob("rolling "+string(a), one("rolling_"+string(a), func() (cascade.ResultTable, error) {
				fmt.Fprintf(os.Stderr, "running %s rolling upgrade (batches of %.0f%% over trace [%.0f%%, %.0f%%))...\n",
					a, *rollBatch*100, *rollStart*100, *rollEnd*100)
				res, t, err := cascade.RollingUpgradeStudy(cascade.RollingConfig{
					Arch:          a,
					Base:          cfg,
					BatchFraction: *rollBatch,
					StartAt:       *rollStart,
					EndAt:         *rollEnd,
				})
				if err != nil {
					return cascade.ResultTable{}, err
				}
				fmt.Fprintf(os.Stderr, "rolling %s: %d batches, epoch %d, routed around %d hops, dip %.2fpp, %d predictions / %d hits booked\n",
					a, len(res.Batches), res.FinalEpoch, res.Stats.RoutedAround,
					res.HitDip(), res.Predictions, res.Hits)
				if res.AuditViolations > 0 {
					return cascade.ResultTable{}, fmt.Errorf("rolling %s: %d audit violations", a, res.AuditViolations)
				}
				if dip := res.HitDip(); dip > 5 {
					return cascade.ResultTable{}, fmt.Errorf("rolling %s: hit-rate dip %.2fpp exceeds 5pp", a, dip)
				}
				if res.Predictions == 0 {
					return cascade.ResultTable{}, fmt.Errorf("rolling %s: cost ledger booked nothing", a)
				}
				return t, nil
			}))
		}
	}

	if err := runJobs(work, *parallel, emit); err != nil {
		return err
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cascade.WriteHTMLReport(f, "Coordinated cascaded caching — results", reportTables); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d tables)\n", *htmlOut, len(reportTables))
	}
	if *baseline != "" && driftTotal > 0 {
		return fmt.Errorf("%d cells drifted beyond tolerance", driftTotal)
	}
	return nil
}

// runJobs executes the experiment jobs — sequentially, or concurrently when
// parallel is set — and hands every produced table to emit in job-definition
// order, so both modes write identical bytes to stdout. The first job error
// (in definition order) is returned; later tables are not emitted.
func runJobs(jobs []simJob, parallel bool, emit func(string, cascade.ResultTable) error) error {
	results := make([][]namedTable, len(jobs))
	errs := make([]error, len(jobs))
	if parallel {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[i], errs[i] = jobs[i].run()
			}(i)
		}
		wg.Wait()
	} else {
		for i := range jobs {
			results[i], errs[i] = jobs[i].run()
			if errs[i] != nil {
				break
			}
		}
	}
	for i, j := range jobs {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", j.label, errs[i])
		}
		for _, nt := range results[i] {
			if err := emit(nt.name, nt.table); err != nil {
				return err
			}
		}
	}
	return nil
}

func allFigureIDs() []string {
	var ids []string
	for _, f := range cascade.Figures() {
		ids = append(ids, f.ID)
	}
	return ids
}

func archAllowed(a cascade.Architecture, allowed []cascade.Architecture) bool {
	for _, x := range allowed {
		if x == a {
			return true
		}
	}
	return false
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
