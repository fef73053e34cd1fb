// Command bench is the repository's benchmark: six workloads over the three
// incarnations of the cascade (HTTP gateway chain, actor cluster, replay
// simulator), end-to-end metrics measured with tracing off, and a traced run
// that adds harness-side spans, counter deltas and an isolated layer ladder.
// See README.md for the method and BENCHMARK.json for the contract.
//
//	cd bench && go run . -seed 1              # every workload, both modes
//	bash bench/run.sh --workload gw_hit --seed 1 --seconds 8 --trace 0
//	cd bench && go run . -repeat 10           # spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "measured window per run")
		trace   = flag.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics, both")
		scale   = flag.Float64("scale", 1, "multiplies windows, warm-ups and call counts (tests use 0.005)")
		repeat  = flag.Int("repeat", 0, "run each workload N times on seeds seed..seed+N-1 and check spreads against the bounds")
		outDir  = flag.String("out", "out", "directory for span dumps and ladder scratch files")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(currentSpec())
	}
	if *seconds <= 0 || *scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	printEnv(*scale)

	if *repeat > 0 {
		return repeatRuns(selected, *seed, *seconds, *scale, *outDir, *repeat)
	}
	// The driver's form — one workload, one mode — prints exactly the
	// contract's object. Anything wider labels each line.
	single := len(selected) == 1 && len(modes) == 1
	ok := true
	for _, w := range selected {
		for _, traced := range modes {
			res, err := runOnce(runConfig{w: w, seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			for _, e := range res.Errors {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
			}
			if !single {
				t := 0
				if traced {
					t = 1
				}
				res.Workload, res.Trace, res.Seed = w.name, &t, seed
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			ok = ok && res.Correct
		}
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// printEnv states, on stderr, where the numbers come from.
func printEnv(scale float64) {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"users":      users,
		"scale":      scale,
		"loop":       "closed",
		"transport":  "loopback TCP (httptest.NewServer) for gateway workloads; none for cluster_get and sim_replay",
	}
	line, _ := json.Marshal(env) //nolint:errcheck // a map of strings and numbers always marshals
	fmt.Fprintf(os.Stderr, "bench: env %s\n", line)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(l, "model name") {
			if i := strings.IndexByte(l, ':'); i >= 0 {
				return strings.TrimSpace(l[i+1:])
			}
		}
	}
	return "unknown"
}

// repeatRuns measures run-to-run spread the way the driver does: N runs of
// each workload on N seeds, the interquartile distance of each end-to-end
// metric as a share of its median, held against the metric's bound.
func repeatRuns(selected []workload, seed int64, seconds, scale float64, outDir string, n int) error {
	exceeded := false
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, err := runOnce(runConfig{w: w, seed: seed + int64(i), seconds: seconds, scale: scale, outDir: outDir}, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct {
				for _, e := range res.Errors {
					fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
				}
				return fmt.Errorf("%s: output checks failed on seed %d", w.name, seed+int64(i))
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		for _, m := range endToEnd {
			v := values[m.Name]
			lo, hi := v[0], v[0]
			for _, x := range v {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			sp := spread(v)
			verdict := "ok"
			// setup_s is gated on its median only; its spread is shown
			// but, as in the driver, not held to the bound.
			if sp > m.Bound && m.Name != "setup_s" {
				verdict = "SPREAD EXCEEDS BOUND"
				exceeded = true
			}
			line, _ := json.Marshal(map[string]any{ //nolint:errcheck // plain values
				"workload": w.name, "metric": m.Name, "unit": m.Unit, "runs": n,
				"min": lo, "median": median(v), "max": hi, "spread": sp, "bound": m.Bound, "verdict": verdict,
				"values": v,
			})
			fmt.Println(string(line))
		}
	}
	if exceeded {
		return fmt.Errorf("a spread exceeds its bound")
	}
	return nil
}
