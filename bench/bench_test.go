package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// testScale shrinks every window, warm-up and call count 200-fold: the
// whole suite runs every workload in both modes in a few seconds, with all
// output checks on.
const testScale = 0.005

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed benchSpec
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(committed, want) {
		t.Errorf("BENCHMARK.json differs from the program's spec; regenerate it with `go run . -spec > ../BENCHMARK.json`\ncommitted: %+v\nprogram:   %+v", committed, want)
	}
}

func TestSpecWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	s := currentSpec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != lower {
				t.Errorf("setup_s must be seconds, lower is better")
			}
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (max %v)", setupBound, maxBound)
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", m.Name)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			ID, Parent uint32
			Name, Note string
			Start, End int64
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		out = append(out, span{ID: s.ID, Parent: s.Parent, Name: s.Name, Start: s.Start, End: s.End, Note: s.Note})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryWorkloadSmallScale runs each workload in both modes at 1/200
// scale and holds the output to the contract: checks pass, and the metric
// names printed are exactly the ones BENCHMARK.json declares for the mode.
func TestEveryWorkloadSmallScale(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOnce(runConfig{w: w, seed: 7, seconds: runSeconds, scale: testScale, outDir: dir}, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s printed in %q, declared in %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s is %v", w.name, m.Name, got.Value)
				case !traced && got.Value <= 0 && m.Name != "byte_hit_ratio":
					// At 1/200 scale a two-request warm-up leaves the caches
					// cold, so the hit ratio alone may honestly read zero.
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.name, m.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			spans := readSpans(t, filepath.Join(dir, w.name+".trace.jsonl"))
			if len(spans) == 0 {
				t.Errorf("%s: traced run wrote no spans", w.name)
			}
			if err := checkSpans(spans); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if w.kind != kindGateway {
				continue
			}
			// Every traced GET reached at least the front node.
			children := make(map[uint32]int)
			for _, s := range spans {
				children[s.Parent]++
			}
			for _, s := range spans {
				if s.Name == spanClient && children[s.ID] != 1 {
					t.Errorf("%s: client span %d has %d children, want its one hop0 handler span", w.name, s.ID, children[s.ID])
					break
				}
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got, want := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSpanTreeChecks(t *testing.T) {
	good := []span{
		{ID: 1, Name: spanClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanHandler(0), Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanRoundTrip(0), Start: 20, End: 95}, // read its end late
		{ID: 4, Parent: 3, Name: spanOrigin, Start: 30, End: 60},
	}
	if err := checkSpans(good); err == nil {
		t.Error("a child outliving its parent passed the check")
	}
	if n := coverChildren(good); n != 1 {
		t.Errorf("coverChildren extended %d spans, want 1", n)
	}
	if err := checkSpans(good); err != nil {
		t.Errorf("after coverChildren: %v", err)
	}
	self := selfTimes(good)
	if got := self[spanHandler(0)][0]; got != (95-10-75)/1e3 {
		t.Errorf("hop0 self time = %v µs, want %v", got, (95-10-75)/1e3)
	}
	orphan := append(good[:0:0], good...)
	orphan[3].Parent = 9
	if err := checkSpans(orphan); err == nil {
		t.Error("a span naming a missing parent passed the check")
	}
	rootless := append(good[:0:0], good...)
	rootless[1].Parent = 0
	if err := checkSpans(rootless); err == nil {
		t.Error("a handler span without a parent passed the check")
	}
}
