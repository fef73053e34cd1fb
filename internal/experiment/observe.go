package experiment

import (
	"fmt"
	"io"
	"sort"

	"cascade/internal/audit"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/span"
)

// auditGate writes the auditor's per-invariant check and violation counts
// to log and fails when any invariant was violated.
func auditGate(log io.Writer, arch Arch, a *audit.Auditor) error {
	for _, iv := range audit.Invariants() {
		fmt.Fprintf(log, "audit %s %s: %d checks, %d violations\n", arch, iv, a.Checks(iv), a.Violations(iv))
	}
	if n := a.TotalViolations(); n > 0 {
		return fmt.Errorf("%d audit violations", n)
	}
	return nil
}

// observedReplay runs the coordinated scheme over the configured workload at
// one relative cache size with the observability stack attached: an online
// invariant auditor, a predicted-vs-realized cost ledger, and whatever else
// the attach hook wires before the replay (span tracing; nil for none).
func observedReplay(arch Arch, cfg Config, size float64, attach func(*scheme.Coordinated)) (*scheme.Coordinated, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)

	sch := scheme.NewCoordinated()
	sch.SetAuditor(audit.New(nil))
	sch.SetLedger(audit.NewLedger())
	if attach != nil {
		attach(sch)
	}

	simr, err := sim.New(sim.Config{
		Scheme:            sch,
		Network:           net,
		Catalog:           w.Catalog(),
		RelativeCacheSize: size,
		DCacheFactor:      cfg.DCacheFactor,
		Seed:              cfg.AttachSeed + 7,
	})
	if err != nil {
		return nil, err
	}
	src, err := w.Open()
	if err != nil {
		return nil, err
	}
	simr.Run(src, w.Len()/2)
	return sch, nil
}

// ledgerStudy replays the configured workload through the coordinated
// scheme at the first of cfg.CacheSizes with the cost ledger and invariant
// auditor attached, and tabulates each node's predicted-vs-realized
// accounting. The predicted column is the DP's claimed cost-reduction rate
// (§2.1's Δcost, cost per second); the realized column is the cost actually
// avoided by hits at placed copies over the run — see docs/OBSERVABILITY.md
// for how to read the two together. Any audit violation fails the study.
func ledgerStudy(arch Arch, cfg Config, log io.Writer) (Table, error) {
	cfg.setDefaults()
	size := cfg.CacheSizes[0]
	sch, err := observedReplay(arch, cfg, size, nil)
	if err != nil {
		return Table{}, err
	}
	if err := auditGate(log, arch, sch.Auditor()); err != nil {
		return Table{}, err
	}

	t := Table{
		Title: fmt.Sprintf("Predicted-vs-realized placement accounting (%s, cache size %.2f%%)",
			arch, size*100),
		XLabel:  "node",
		YLabel:  "per node",
		Columns: []string{"predicted gain (cost/s)", "realized savings (cost)", "predictions", "placements", "place failures", "hits"},
	}
	for _, acc := range sch.Ledger().Snapshot() {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%d", acc.Node),
			Values: []float64{
				acc.PredictedGain,
				acc.RealizedSavings,
				float64(acc.Predictions),
				float64(acc.Placements),
				float64(acc.PlaceFailures),
				float64(acc.Hits),
			},
		})
	}
	return t, nil
}

// SpanDump replays the configured workload through the coordinated scheme
// with cascade-wide span tracing attached — tail sampling at the given rate,
// a per-node ring of the given capacity — and returns every node's span
// snapshot, sorted by node ID. The replay loop is this incarnation's edge,
// so every request's trace roots there and the protocol-phase spans
// (lookup/up/decide/down per hop) nest under it exactly as the distributed
// incarnations emit them. Exposed as `cascadesim -span-dump`.
func SpanDump(arch Arch, cfg Config, size float64, capacity int, rate float64) ([]span.Snapshot, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("experiment: span capacity must be positive, got %d", capacity)
	}
	if size <= 0 {
		size = 0.01
	}
	sch, err := observedReplay(arch, cfg, size, func(sch *scheme.Coordinated) {
		sch.SetSpans(span.NewTracer(span.Policy{Rate: rate}), capacity)
	})
	if err != nil {
		return nil, err
	}

	nodes := sch.SpanNodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	out := make([]span.Snapshot, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, sch.SpanRing(n).TakeSnapshot(n))
	}
	return out, nil
}
