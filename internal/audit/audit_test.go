package audit

import (
	"strings"
	"testing"

	"cascade/internal/metrics"
)

func TestCheckLocalBenefit(t *testing.T) {
	a := New(nil)
	// Clearly beneficial: f·m = 0.5·10 = 5 ≥ l = 1.
	a.CheckLocalBenefit(nil, 1, 7, 0, 0.5, 10, 1, 0)
	if a.Violations(LocalBenefit) != 0 || a.Checks(LocalBenefit) != 1 {
		t.Fatalf("benefit check miscounted: v=%d c=%d", a.Violations(LocalBenefit), a.Checks(LocalBenefit))
	}
	// Clearly violating: f·m = 0.1·1 < l = 5.
	var got Violation
	a.SetOnViolation(func(v Violation) { got = v })
	a.CheckLocalBenefit(nil, 2, 9, 3, 0.1, 1, 5, 42)
	if a.Violations(LocalBenefit) != 1 {
		t.Fatal("violation not counted")
	}
	if got.Invariant != LocalBenefit || got.Node != 2 || got.Obj != 9 || got.Hop != 3 ||
		got.Got != 0.1 || got.Want != 5 || got.Now != 42 {
		t.Fatalf("sink context = %+v", got)
	}
	// Reassociation noise within the relative epsilon must not fire.
	fm := 0.3 * 7.0
	a.CheckLocalBenefit(nil, 1, 7, 0, 0.3, 7, fm*(1+1e-12), 0)
	if a.Violations(LocalBenefit) != 1 {
		t.Fatal("epsilon-scale difference fired the check")
	}
}

func TestBruteForceGain(t *testing.T) {
	// Hand-computed: two candidates, index 0 nearest the serving node.
	//   path[0]: f=2, m=3, l=1    path[1]: f=1, m=5, l=2
	// Subsets (client→server scan, f_next of deepest chosen is 0):
	//   {0}:    (2−0)·3 − 1                  = 5
	//   {1}:    (1−0)·5 − 2                  = 3
	//   {0,1}:  (1−0)·5 − 2 + (2−1)·3 − 1   = 5
	// Best = 5.
	path := []PathPoint{{Freq: 2, MissPenalty: 3, CostLoss: 1}, {Freq: 1, MissPenalty: 5, CostLoss: 2}}
	if got := bruteForceGain(path); got != 5 {
		t.Fatalf("bruteForceGain = %g, want 5", got)
	}
	// All placements losing: the empty subset's 0 wins.
	lossy := []PathPoint{{Freq: 0.1, MissPenalty: 1, CostLoss: 10}}
	if got := bruteForceGain(lossy); got != 0 {
		t.Fatalf("bruteForceGain = %g, want 0", got)
	}
}

func TestSpotCheckDP(t *testing.T) {
	a := New(nil)
	path := []PathPoint{{Freq: 2, MissPenalty: 3, CostLoss: 1}, {Freq: 1, MissPenalty: 5, CostLoss: 2}}
	a.SpotCheckDP(nil, 0, 1, path, 5, 0) // matches the oracle
	if a.Violations(DPOptimality) != 0 || a.Checks(DPOptimality) != 1 {
		t.Fatalf("matching DP flagged: v=%d", a.Violations(DPOptimality))
	}
	a.SpotCheckDP(nil, 0, 1, path, 4.5, 0) // sub-optimal claim
	if a.Violations(DPOptimality) != 1 {
		t.Fatal("sub-optimal DP gain not flagged")
	}
}

func TestShouldSpotCheckSampling(t *testing.T) {
	a := New(nil)
	a.SetSpotCheck(4, 10)
	granted := 0
	for i := 0; i < 100; i++ {
		if a.ShouldSpotCheck(5) {
			granted++
		}
	}
	if granted != 25 {
		t.Fatalf("granted %d of 100 at every=4", granted)
	}
	// Oversized vectors and a zero rate never sample.
	if a.ShouldSpotCheck(11) {
		t.Fatal("sampled a vector past maxN")
	}
	a.SetSpotCheck(0, 10)
	if a.ShouldSpotCheck(5) {
		t.Fatal("sampled with sampling disabled")
	}
}

func TestCheckEvictionOrder(t *testing.T) {
	a := New(nil)
	a.CheckEvictionOrder(nil, 0, 1, 2.0, 2.0, 0) // boundary: equal keys are legal
	a.CheckEvictionOrder(nil, 0, 1, 1.0, 3.0, 0)
	if a.Violations(EvictionOrder) != 0 {
		t.Fatal("legal victim sets flagged")
	}
	a.CheckEvictionOrder(nil, 0, 1, 3.0, 2.0, 0) // victim outranks a retained entry
	if a.Violations(EvictionOrder) != 1 {
		t.Fatal("out-of-order eviction not flagged")
	}
}

func TestCheckPenaltyStep(t *testing.T) {
	cases := []struct {
		name                     string
		prev, incoming, outgoing float64
		placed                   bool
		bad                      bool
	}{
		{"pass-through", 1, 3, 3, false, false},
		{"reset at placement", 1, 3, 0, true, false},
		{"negative counter", -1, 3, 3, false, true},
		{"counter decreased", 3, 1, 1, false, true},
		{"placement without reset", 1, 3, 3, true, true},
		{"mutated pass-through", 1, 3, 4, false, true},
	}
	for _, tc := range cases {
		a := New(nil)
		a.CheckPenaltyStep(nil, 0, 1, 0, tc.prev, tc.incoming, tc.outgoing, tc.placed)
		if got := a.Violations(MissPenalty) != 0; got != tc.bad {
			t.Errorf("%s: violation=%v want %v", tc.name, got, tc.bad)
		}
	}
}

func TestNilAuditorSafe(t *testing.T) {
	var a *Auditor
	a.SetOnViolation(func(Violation) { t.Fatal("sink on nil auditor") })
	a.SetSpotCheck(1, 4)
	a.CheckLocalBenefit(nil, 0, 1, 0, 0, 1, 5, 0)
	a.SpotCheckDP(nil, 0, 1, []PathPoint{{Freq: 1, MissPenalty: 1}}, -1, 0)
	a.CheckEvictionOrder(nil, 0, 1, 5, 1, 0)
	a.CheckPenaltyStep(nil, 0, 1, 0, -1, -1, -1, false)
	if a.ShouldSpotCheck(1) {
		t.Fatal("nil auditor granted a spot check")
	}
	if a.TotalViolations() != 0 || a.Checks(LocalBenefit) != 0 {
		t.Fatal("nil auditor reported counts")
	}
}

func TestRegisteredSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	a := New(reg, metrics.L("node", "3"))
	a.CheckLocalBenefit(nil, 3, 1, 0, 0.1, 1, 5, 0) // one violation

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cascade_audit_checks_total{node="3",invariant="local_benefit"} 1`,
		`cascade_audit_violations_total{node="3",invariant="local_benefit"} 1`,
		`cascade_audit_violations_total{node="3",invariant="dp_optimality"} 0`,
		`cascade_audit_violations_total{node="3",invariant="eviction_order"} 0`,
		`cascade_audit_violations_total{node="3",invariant="miss_penalty"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	l.RecordPrediction(1, 2.5)
	l.RecordPrediction(1, 1.5)
	l.RecordPlacement(1, true)
	l.RecordPlacement(1, false)
	l.RecordHit(1, 3)
	l.RecordHit(2, 7)

	acc := l.Node(1)
	if acc.PredictedGain != 4 || acc.Predictions != 2 || acc.Placements != 1 ||
		acc.PlaceFailures != 1 || acc.RealizedSavings != 3 || acc.Hits != 1 {
		t.Fatalf("node 1 account = %+v", acc)
	}
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].Node != 1 || snap[1].Node != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	tot := l.Totals()
	if tot.RealizedSavings != 10 || tot.Hits != 2 || tot.Predictions != 2 {
		t.Fatalf("totals = %+v", tot)
	}
	if unseen := l.Node(9); unseen.Node != 9 || unseen.Hits != 0 {
		t.Fatalf("unseen node account = %+v", unseen)
	}

	var nilL *Ledger
	nilL.RecordPrediction(1, 1)
	nilL.RecordPlacement(1, true)
	nilL.RecordHit(1, 1)
	if nilL.Snapshot() != nil || nilL.Totals().Hits != 0 {
		t.Fatal("nil ledger reported state")
	}
}

func TestLedgerRegisteredSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLedger()
	l.RegisterNode(reg, 0, metrics.L("node", "0"))
	l.RecordPrediction(0, 1.25)
	l.RecordPlacement(0, true)
	l.RecordHit(0, 2.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cascade_ledger_predicted_gain{node="0"} 1.25`,
		`cascade_ledger_realized_savings{node="0"} 2.5`,
		`cascade_ledger_placements_total{node="0"} 1`,
		`cascade_ledger_place_failures_total{node="0"} 0`,
		`cascade_ledger_hits_total{node="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
}

func TestInvariantNames(t *testing.T) {
	seen := map[string]bool{}
	for _, iv := range Invariants() {
		name := iv.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("invariant %d has bad or duplicate label %q", iv, name)
		}
		seen[name] = true
	}
	if Invariant(200).String() != "unknown" {
		t.Fatal("out-of-range invariant label")
	}
}

func TestSpotCheckTolerance(t *testing.T) {
	a := New(nil)
	path := []PathPoint{{Freq: 1e6, MissPenalty: 1e3, CostLoss: 1}}
	best := bruteForceGain(path)
	// A relative wobble far under the epsilon must pass.
	a.SpotCheckDP(nil, 0, 1, path, best*(1+1e-9), 0)
	if a.Violations(DPOptimality) != 0 {
		t.Fatal("relative tolerance too tight")
	}
	// A real gap at the same magnitude must fail.
	a.SpotCheckDP(nil, 0, 1, path, best*(1-1e-3), 0)
	if a.Violations(DPOptimality) != 1 {
		t.Fatal("real optimality gap not flagged")
	}
}
