package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"cascade/internal/controlplane"
	"cascade/internal/model"
)

// The rolling study's schedule: under sustained load, a tenth of the
// cascade's nodes at a time is drained and re-admitted — the control
// plane's version of a rolling upgrade — over the trace's middle half,
// with the active health checker probing every 50 ms.
const (
	rollingBatchFraction = 0.1
	rollingStartAt       = 0.25
	rollingEndAt         = 0.75
	rollingProbeInterval = 50 * time.Millisecond
)

var rollingPhaseNames = [numPhases]string{"healthy", "rolling", "recovered"}

// rollingResult is the replay's accounting.
type rollingResult struct {
	phased
	// Batches is the deterministic upgrade schedule: every cache node,
	// partitioned in ID order.
	Batches [][]model.NodeID
	// StartIndex and EndIndex are the request indices bounding the window.
	StartIndex, EndIndex int

	// FinalEpoch is the control plane's epoch after the run: every drain
	// bumps it twice (start + finish) and every admit once, so a completed
	// schedule lands at ≥ 3 × nodes.
	FinalEpoch uint64
	// AuditViolations is the online auditor's total across the replay —
	// zero on a correct run, whatever the membership churn.
	AuditViolations int64
	// Predictions and Hits are the cost ledger's totals, proving the
	// accounting stayed live through every reconfiguration.
	Predictions, Hits int64
}

// HitDip is the rolling phase's byte-hit-ratio shortfall against the
// healthy phase, in percentage points — the study's headline number: how
// much service quality a rolling upgrade costs while it runs.
func (r rollingResult) HitDip() float64 {
	return (r.Phases[phaseBefore].ByteHitRatio - r.Phases[phaseDuring].ByteHitRatio) * 100
}

// gate fails a replay that broke the study's guarantees: an audit
// violation, a byte-hit-ratio dip of more than 5 percentage points, or a
// cost ledger that booked nothing.
func (r rollingResult) gate() error {
	if r.AuditViolations > 0 {
		return fmt.Errorf("%d audit violations", r.AuditViolations)
	}
	if dip := r.HitDip(); dip > 5 {
		return fmt.Errorf("hit-rate dip %.2fpp exceeds 5pp", dip)
	}
	if r.Predictions == 0 {
		return fmt.Errorf("cost ledger booked nothing")
	}
	return nil
}

// rollingStudy is runRolling with its progress lines and its gate.
func rollingStudy(arch Arch, cfg Config, log io.Writer) (Table, error) {
	fmt.Fprintf(log, "running %s rolling upgrade (batches of %.0f%% over trace [%.0f%%, %.0f%%))...\n",
		arch, rollingBatchFraction*100, rollingStartAt*100, rollingEndAt*100)
	res, t, err := runRolling(arch, cfg)
	if err != nil {
		return Table{}, err
	}
	fmt.Fprintf(log, "rolling %s: %d batches, epoch %d, routed around %d hops, dip %.2fpp, %d predictions / %d hits booked\n",
		arch, len(res.Batches), res.FinalEpoch, res.Stats.RoutedAround,
		res.HitDip(), res.Predictions, res.Hits)
	if err := res.gate(); err != nil {
		return Table{}, err
	}
	return t, nil
}

// runRolling replays the workload through the live cluster runtime while
// every cache node is drained and re-admitted in batches: at each stride of
// the rolling window the previous batch rejoins (empty — an upgraded
// process restarts cold) and the next batch drains, spilling its
// descriptors to its parent on the way out. The active health checker runs
// throughout. Every request must terminate; the auditor must stay silent;
// the ledger must keep booking through every epoch flip.
func runRolling(arch Arch, cfg Config) (rollingResult, Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	numNodes := net.NumCaches()

	batchSize := max(1, int(rollingBatchFraction*float64(numNodes)+0.5))
	var batches [][]model.NodeID
	for lo := 0; lo < numNodes; lo += batchSize {
		b := make([]model.NodeID, 0, batchSize)
		for id := lo; id < min(lo+batchSize, numNodes); id++ {
			b = append(b, model.NodeID(id))
		}
		batches = append(batches, b)
	}

	n := w.Len()
	startIdx := int(rollingStartAt * float64(n))
	endIdx := int(rollingEndAt * float64(n))
	stride := (endIdx - startIdx) / len(batches)
	if startIdx >= endIdx || endIdx > n || stride < 1 {
		return rollingResult{}, Table{}, fmt.Errorf("experiment: rolling window [%d, %d) cannot fit %d batches in %d requests",
			startIdx, endIdx, len(batches), n)
	}

	lr, err := newLiveReplay(cfg, net, w, true)
	if err != nil {
		return rollingResult{}, Table{}, err
	}
	defer lr.Close()
	stop := make(chan struct{})
	defer close(stop)
	lr.StartHealthChecker(controlplane.CheckerConfig{Interval: rollingProbeInterval}, stop)

	result := rollingResult{Batches: batches, StartIndex: startIdx, EndIndex: endIdx}
	draining := make(map[model.NodeID]bool, batchSize)
	nextBatch := 0
	ctx := context.Background()
	// The upgrade schedule, at the request's time: at each stride boundary
	// the previous batch rejoins (cold) and the next drains out. Past the
	// window's end, the last batch rejoins and the cascade is whole again.
	result.phased, err = lr.replay(w, startIdx, endIdx, draining, func(i int, now float64) error {
		lr.clock.Set(now)
		if i < startIdx || nextBatch > len(batches) || i != startIdx+nextBatch*stride {
			return nil
		}
		if nextBatch > 0 {
			for _, id := range batches[nextBatch-1] {
				if !lr.Admit(id) {
					return fmt.Errorf("experiment: admit of node %d refused", id)
				}
				delete(draining, id)
			}
		}
		if nextBatch < len(batches) {
			for _, id := range batches[nextBatch] {
				if !lr.Drain(ctx, id) {
					return fmt.Errorf("experiment: drain of node %d refused", id)
				}
				draining[id] = true
			}
		}
		nextBatch++
		return nil
	})
	if err != nil {
		return rollingResult{}, Table{}, err
	}
	// A schedule that never completed (trace too short for the last admit)
	// would leave nodes out of the cascade silently.
	if nextBatch <= len(batches) {
		return rollingResult{}, Table{}, fmt.Errorf("experiment: rolling schedule incomplete: %d of %d batches cycled",
			nextBatch-1, len(batches))
	}
	result.FinalEpoch = lr.ControlPlane().Epoch()
	result.AuditViolations = lr.Auditor().TotalViolations()
	tot := lr.Ledger().Totals()
	result.Predictions, result.Hits = tot.Predictions, tot.Hits

	t := Table{
		Title: fmt.Sprintf("Rolling upgrade study (%s): %d nodes in %d batches over trace [%.0f%%, %.0f%%)",
			arch, numNodes, len(batches), rollingStartAt*100, rollingEndAt*100),
		XLabel:  "phase",
		YLabel:  "byte hit ratio",
		Columns: []string{"BHR", "avg cost", "degraded ratio", "skipped hops/req"},
	}
	phaseRows(&t, rollingPhaseNames, func(i int) []float64 {
		s := result.summary(i)
		return []float64{s.ByteHitRatio, s.AvgLatency, s.DegradedRatio, s.AvgSkippedHops}
	})
	return result, t, nil
}
