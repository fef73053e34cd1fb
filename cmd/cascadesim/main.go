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
//	cascadesim -exp all                     # Table 1, every figure, every study but the replays
//	cascadesim -exp fig6a,fig7a             # selected figures
//	cascadesim -exp radius -arch hierarchy  # MODULO radius study
//	cascadesim -exp chaos,ledger,rolling    # the operational replays, outside all
//	cascadesim -exp figs -csv out/ -svg figs/ -html report.html
//	cascadesim -exp figs -baseline golden/  # regression drift detection
//	cascadesim -exp fig6a -replicate 5      # mean ± stdev over seeds
//	cascadesim -span-dump 256 -span-sample 0.1  # dump per-node span rings (both passes, with f/l/tag, Δcost, penalty attributes) as JSON
//
// The studies, with their fixed parameters, are the table cascade.Studies()
// returns; -list prints their names. The workload is synthetic (see DESIGN.md for the
// substitution rationale) unless -trace FILE replays a recorded trace in
// the cascade text format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
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
		exps    = flag.String("exp", "all", "experiments: all, figs, "+strings.Join(studyNames(), ", ")+", or comma-separated figure IDs (fig6a..fig10b)")
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
		md         = flag.Bool("md", false, "emit GitHub-flavored markdown instead of aligned text")
		replicate  = flag.Int("replicate", 0, "rerun each figure under N seeds and report mean ± stdev")
		baseline   = flag.String("baseline", "", "directory of previously exported CSVs to compare against (5% tolerance)")
		verbose    = flag.Bool("v", false, "print per-cell progress")
		list       = flag.Bool("list", false, "list available experiments, figures and schemes, then exit")
		jobs       = flag.Int("j", 0, "concurrent sweep cells (0 = GOMAXPROCS)")
		parallel   = flag.Bool("parallel", false, "run independent studies concurrently (output order is unchanged)")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stop, err := profile(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stop()

	if *list {
		fmt.Println("figures:")
		for _, f := range cascade.Figures() {
			fmt.Printf("  %-8s %s\n", f.ID, f.Title)
		}
		fmt.Printf("studies: %s\n", strings.Join(studyNames(), " "))
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

	want, figIDs, err := selectExperiments(splitList(*exps))
	if err != nil {
		return err
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

	work := plan(want, figIDs, archs, cfg, *replicate, *verbose)
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

// selectExperiments resolves the -exp names: the studies to run, and the
// figures to sweep, each once however often it is named.
func selectExperiments(names []string) (want map[string]bool, figIDs []string, err error) {
	want = map[string]bool{}
	for _, e := range names {
		switch {
		case e == "all":
			for _, st := range cascade.Studies() {
				if st.InAll {
					want[st.Name] = true
				}
			}
			figIDs = allFigureIDs()
		case e == "figs":
			figIDs = allFigureIDs()
		case slices.Contains(studyNames(), e):
			want[e] = true
		default:
			if _, ok := cascade.FigureByID(e); !ok {
				return nil, nil, fmt.Errorf("-exp: unknown experiment %q", e)
			}
			if !slices.Contains(figIDs, e) {
				figIDs = append(figIDs, e)
			}
		}
	}
	return want, figIDs, nil
}

// plan turns the requested studies (want, by name) and figures into jobs
// producing named tables. Jobs are independent (each builds its own
// workload and simulators from cfg), so -parallel may run them
// concurrently; tables are emitted in job order either way, keeping stdout
// byte-identical between the two modes. The order: the studies ahead of
// the table's first per-architecture one (Table 1), the figures' sweeps,
// the per-architecture studies in "all" one architecture at a time, then
// the rest in table order, each on every architecture in turn.
func plan(want map[string]bool, figIDs []string, archs []cascade.Architecture, cfg cascade.ExperimentConfig, replicate int, verbose bool) []simJob {
	var work []simJob
	addJob := func(label string, run func() ([]namedTable, error)) {
		work = append(work, simJob{label: label, run: run})
	}
	addStudy := func(st cascade.Study, a cascade.Architecture) {
		label := st.Name
		if st.PerArch {
			label += " " + string(a)
		}
		addJob(label, func() ([]namedTable, error) {
			t, err := st.Run(a, cfg, os.Stderr)
			if err != nil {
				return nil, err
			}
			return []namedTable{{st.Stem(a), t}}, nil
		})
	}

	studies := cascade.Studies()
	lead := 0
	for lead < len(studies) && !studies[lead].PerArch {
		if want[studies[lead].Name] {
			addStudy(studies[lead], "")
		}
		lead++
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
		figs := needed[a]
		if len(figs) == 0 {
			continue
		}
		if replicate > 1 {
			addJob("replicate "+string(a), func() ([]namedTable, error) {
				var out []namedTable
				for _, f := range figs {
					t, err := cascade.Replicate(a, cfg, f, replicate)
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
				if verbose {
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
		for _, st := range studies[lead:] {
			if want[st.Name] && st.PerArch && st.InAll {
				addStudy(st, a)
			}
		}
	}
	for _, st := range studies[lead:] {
		switch {
		case !want[st.Name] || st.PerArch && st.InAll:
		case !st.PerArch:
			addStudy(st, "")
		default:
			for _, a := range archs {
				addStudy(st, a)
			}
		}
	}
	return work
}

// profile starts a CPU profile into cpu and arranges a heap profile into
// mem, each when named; stop ends the one and writes the other.
func profile(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cascadesim: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cascadesim: memprofile:", err)
		}
	}, nil
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

// studyNames lists the table's studies, in its order.
func studyNames() []string {
	var names []string
	for _, st := range cascade.Studies() {
		names = append(names, st.Name)
	}
	return names
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
