package experiment

import (
	"io"
	"strings"
	"testing"

	"cascade/internal/metrics"
)

// TestRollingUpgradeStudyAcceptance exercises the study's headline
// guarantees: every node of the cascade cycles out and back in under load,
// every request terminates, the auditor stays silent, the ledger keeps
// booking, and the hit-rate dip during the rolling window stays bounded.
func TestRollingUpgradeStudyAcceptance(t *testing.T) {
	cfg := tinyLiveConfig(0)
	res, table, err := runRolling(Hierarchy, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Liveness: the whole trace was processed.
	if got, want := res.Overall.Requests, int64(cfg.Trace.Requests); got != want {
		t.Fatalf("requests %d, want %d", got, want)
	}

	// The schedule covered every cache node exactly once.
	numNodes := cfg.Network(Hierarchy).NumCaches()
	seen := make(map[int]bool, numNodes)
	for _, b := range res.Batches {
		for _, id := range b {
			if seen[int(id)] {
				t.Fatalf("node %d scheduled twice", id)
			}
			seen[int(id)] = true
		}
	}
	if len(seen) != numNodes {
		t.Fatalf("schedule covered %d of %d nodes", len(seen), numNodes)
	}

	// Every drain bumps the epoch twice and every admit once, so a
	// completed schedule lands at ≥ 3 × nodes.
	if res.FinalEpoch < uint64(3*numNodes) {
		t.Fatalf("final epoch %d, want ≥ %d", res.FinalEpoch, 3*numNodes)
	}

	// Drains are not crashes: the failure counters must stay untouched
	// while requests route around the departing batches.
	if res.Stats.Failures != 0 || res.Stats.Recoveries != 0 {
		t.Fatalf("cooperative drains counted as crashes: %+v", res.Stats)
	}
	if res.Stats.RoutedAround == 0 {
		t.Fatal("no hops were routed around during the rolling window")
	}
	if res.Phases[phaseDuring].AvgSkippedHops == 0 {
		t.Fatal("rolling phase skipped no hops")
	}

	// Correctness and accounting stayed live through every epoch flip,
	// and the rolling window cost at most 5 percentage points of byte hit
	// ratio against the healthy phase.
	if res.Hits == 0 {
		t.Fatalf("ledger booked %d predictions but no hit", res.Predictions)
	}
	if err := res.gate(); err != nil {
		t.Fatalf("%v (healthy BHR %.3f, rolling %.3f)", err,
			res.Phases[phaseBefore].ByteHitRatio, res.Phases[phaseDuring].ByteHitRatio)
	}

	if len(table.Rows) != numPhases+1 || len(table.Columns) != 4 {
		t.Fatalf("table shape: %d rows, %d columns", len(table.Rows), len(table.Columns))
	}
}

// TestRollingUpgradeStudyDeterministic: the replay is serial and seeded, so
// two runs agree exactly (the async health checker observes but never
// perturbs the request path).
func TestRollingUpgradeStudyDeterministic(t *testing.T) {
	a, _, err := runRolling(Hierarchy, tinyLiveConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runRolling(Hierarchy, tinyLiveConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall != b.Overall {
		t.Fatalf("runs diverged:\n%+v\n%+v", a.Overall, b.Overall)
	}
	for p := range a.Phases {
		if a.Phases[p] != b.Phases[p] {
			t.Fatalf("phase %s diverged:\n%+v\n%+v", rollingPhaseNames[p], a.Phases[p], b.Phases[p])
		}
	}
}

// TestRollingUpgradeStudyWindowValidation rejects a trace too short for the
// batch schedule.
func TestRollingUpgradeStudyWindowValidation(t *testing.T) {
	cfg := tinyLiveConfig(0)
	cfg.Trace.Requests = 20 // a 10-request window cannot stride 13 one-node batches
	if _, err := rollingStudy(Hierarchy, cfg, io.Discard); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("a window too small for the batch schedule: %v", err)
	}
}

// TestRollingGate: the study fails a replay with an audit violation, a dip
// of more than 5 percentage points or an empty ledger, and passes one
// without.
func TestRollingGate(t *testing.T) {
	ok := rollingResult{Predictions: 1}
	ok.Phases[phaseBefore] = metrics.Summary{ByteHitRatio: 0.5}
	ok.Phases[phaseDuring] = metrics.Summary{ByteHitRatio: 0.46}
	if err := ok.gate(); err != nil {
		t.Fatalf("a 4pp dip failed the gate: %v", err)
	}
	for want, mutate := range map[string]func(*rollingResult){
		"audit violations": func(r *rollingResult) { r.AuditViolations = 1 },
		"exceeds 5pp":      func(r *rollingResult) { r.Phases[phaseDuring].ByteHitRatio = 0.44 },
		"booked nothing":   func(r *rollingResult) { r.Predictions = 0 },
	} {
		r := ok
		mutate(&r)
		if err := r.gate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("gate = %v, want an error mentioning %q", err, want)
		}
	}
}
