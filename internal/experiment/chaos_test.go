package experiment

import (
	"io"
	"strings"
	"testing"

	"cascade/internal/topology"
)

// tinyLiveConfig is tinyConfig on a 13-cache hierarchy, whose crash schedule
// the given seed draws.
func tinyLiveConfig(seed int64) Config {
	cfg := tinyConfig()
	cfg.Tree = topology.TreeConfig{Depth: 3, Fanout: 3, BaseDelay: 0.008, Growth: 5}
	cfg.TopoSeed = seed
	return cfg
}

// TestChaosStudyAcceptance exercises the harness's headline guarantees:
// with 20% of nodes crashed mid-trace every request still terminates, the
// run shuts down cleanly, and after recovery the byte hit rate closes to
// within 10% of the no-fault run.
func TestChaosStudyAcceptance(t *testing.T) {
	cfg := tinyLiveConfig(7)
	res, table, err := runChaos(Hierarchy, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Liveness: both replays processed the entire trace.
	want := int64(cfg.Trace.Requests)
	if res.Baseline.Overall.Requests != want || res.Faulted.Overall.Requests != want {
		t.Fatalf("requests: baseline %d, faulted %d, want %d",
			res.Baseline.Overall.Requests, res.Faulted.Overall.Requests, want)
	}

	// The schedule took down ~20% of nodes and brought them back.
	numNodes := cfg.Network(Hierarchy).NumCaches()
	if len(res.Failed) != int(0.2*float64(numNodes)+0.5) {
		t.Fatalf("failed %d of %d nodes", len(res.Failed), numNodes)
	}
	st := res.Faulted.Stats
	if st.Failures != int64(len(res.Failed)) || st.Recoveries != int64(len(res.Failed)) {
		t.Fatalf("stats: %+v", st)
	}
	if st.RoutedAround == 0 {
		t.Fatal("no hops were routed around during the outage")
	}
	if res.Baseline.Stats.Failures != 0 || res.Baseline.Overall.DegradedRatio != 0 {
		t.Fatal("baseline run saw failures")
	}

	// The degraded window routed around dead caches.
	if res.Faulted.Phases[phaseDuring].AvgSkippedHops == 0 {
		t.Fatal("degraded phase skipped no hops")
	}
	if res.Faulted.Phases[phaseBefore] != res.Baseline.Phases[phaseBefore] {
		t.Fatal("pre-failure phases diverged — replay not deterministic")
	}

	// Recovery: byte hit rate within 10% of the no-fault run.
	if gap := res.RecoveryGap(); gap > 0.10 {
		t.Fatalf("recovery gap %.3f exceeds 10%% (baseline %.3f, faulted %.3f)",
			gap, res.Baseline.Phases[phaseAfter].ByteHitRatio,
			res.Faulted.Phases[phaseAfter].ByteHitRatio)
	}

	if len(table.Rows) != numPhases+1 || len(table.Columns) != 4 {
		t.Fatalf("table shape: %d rows, %d columns", len(table.Rows), len(table.Columns))
	}
}

// TestChaosStudyDeterministic: the same seed reproduces the exact fault
// schedule and byte-identical results.
func TestChaosStudyDeterministic(t *testing.T) {
	a, _, err := runChaos(Hierarchy, tinyLiveConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runChaos(Hierarchy, tinyLiveConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Failed) != len(b.Failed) {
		t.Fatalf("schedules differ: %v vs %v", a.Failed, b.Failed)
	}
	for i := range a.Failed {
		if a.Failed[i] != b.Failed[i] {
			t.Fatalf("schedules differ: %v vs %v", a.Failed, b.Failed)
		}
	}
	if a.Faulted.Overall != b.Faulted.Overall || a.Faulted.Stats != b.Faulted.Stats {
		t.Fatalf("faulted runs diverged:\n%+v\n%+v", a.Faulted.Overall, b.Faulted.Overall)
	}
	// A different seed picks a different schedule.
	c, _, err := runChaos(Hierarchy, tinyLiveConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Failed) == len(c.Failed)
	if same {
		for i := range a.Failed {
			if a.Failed[i] != c.Failed[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 7 and 8 chose the same schedule %v", a.Failed)
	}
}

// TestChaosStudyWindowValidation rejects a trace too short for the crash
// window: one request puts the crash and the recovery at the same index.
func TestChaosStudyWindowValidation(t *testing.T) {
	cfg := tinyLiveConfig(7)
	cfg.Trace.Requests = 1
	if _, err := chaosStudy(Hierarchy, cfg, io.Discard); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("a chaos window that does not fit the trace: %v", err)
	}
}
