package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cascade/internal/controlplane"
	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/runtime"
)

// Rolling phase indices: the trace splits at the window where batches are
// cycling out and back in.
const (
	RollingHealthy = iota
	RollingUpgrading
	RollingRecovered
	rollingPhases
)

var rollingPhaseNames = [rollingPhases]string{"healthy", "rolling", "recovered"}

// RollingConfig parameterizes a rolling-reconfiguration replay over the
// live cluster runtime: under sustained load, the cascade's nodes are drained
// and re-admitted one batch at a time — the control plane's version of a
// rolling upgrade — and the run is accounted phase by phase.
type RollingConfig struct {
	Arch Arch
	Base Config

	// CacheSize is the per-node relative cache size (default 1%).
	CacheSize float64
	// BatchFraction is the fraction of nodes upgraded together (default
	// 0.1 — ten batches walk the whole cascade).
	BatchFraction float64
	// StartAt and EndAt are trace positions (fractions of the request
	// count) bounding the rolling window (defaults 0.25, 0.75).
	StartAt float64
	EndAt   float64
	// HealthInterval is the active health checker's probe period during
	// the replay (default 50ms; negative disables the checker).
	HealthInterval time.Duration
}

// RollingResult is the replay's accounting.
type RollingResult struct {
	// Batches is the deterministic upgrade schedule: every cache node,
	// partitioned in ID order.
	Batches [][]model.NodeID
	// StartIndex and EndIndex are the request indices bounding the window.
	StartIndex, EndIndex int

	Overall metrics.Summary
	Phases  [rollingPhases]metrics.Summary
	Stats   runtime.Stats

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
func (r RollingResult) HitDip() float64 {
	return (r.Phases[RollingHealthy].ByteHitRatio - r.Phases[RollingUpgrading].ByteHitRatio) * 100
}

// RollingUpgradeStudy replays the workload through the live cluster runtime
// while every cache node is drained and re-admitted in batches: at each
// stride of the rolling window the previous batch rejoins (empty — an
// upgraded process restarts cold) and the next batch drains, spilling its
// descriptors to its parent on the way out. The active health checker runs
// throughout. Every request must terminate; the auditor must stay silent;
// the ledger must keep booking through every epoch flip.
func RollingUpgradeStudy(cfg RollingConfig) (RollingResult, Table, error) {
	base := cfg.Base
	base.setDefaults()
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 0.01
	}
	if cfg.BatchFraction == 0 {
		cfg.BatchFraction = 0.1
	}
	if cfg.StartAt == 0 {
		cfg.StartAt = 0.25
	}
	if cfg.EndAt == 0 {
		cfg.EndAt = 0.75
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}

	w := base.workload()
	net := base.Network(cfg.Arch)
	numNodes := net.NumCaches()

	batchSize := int(cfg.BatchFraction*float64(numNodes) + 0.5)
	if batchSize < 1 {
		batchSize = 1
	}
	var batches [][]model.NodeID
	for lo := 0; lo < numNodes; lo += batchSize {
		hi := lo + batchSize
		if hi > numNodes {
			hi = numNodes
		}
		b := make([]model.NodeID, 0, hi-lo)
		for id := lo; id < hi; id++ {
			b = append(b, model.NodeID(id))
		}
		batches = append(batches, b)
	}

	n := w.Len()
	startIdx := int(cfg.StartAt * float64(n))
	endIdx := int(cfg.EndAt * float64(n))
	stride := (endIdx - startIdx) / len(batches)
	if startIdx >= endIdx || endIdx > n || stride < 1 {
		return RollingResult{}, Table{}, fmt.Errorf("experiment: rolling window [%d, %d) cannot fit %d batches in %d requests",
			startIdx, endIdx, len(batches), n)
	}

	cat := w.Catalog()
	avg := cat.AvgSize()
	capacity := int64(cfg.CacheSize * float64(cat.TotalBytes))
	dEntries := 0
	if avg > 0 {
		dEntries = int(base.DCacheFactor * float64(capacity) / avg)
	}

	clk := &chaosClock{}
	cluster, err := runtime.NewCluster(runtime.Config{
		Network:       net,
		CacheBytes:    capacity,
		DCacheEntries: dEntries,
		AvgObjectSize: avg,
		Clock:         clk.Now,
		EnableAudit:   true,
	})
	if err != nil {
		return RollingResult{}, Table{}, err
	}
	defer cluster.Close()

	if cfg.HealthInterval > 0 {
		stop := make(chan struct{})
		defer close(stop)
		cluster.StartHealthChecker(controlplane.CheckerConfig{Interval: cfg.HealthInterval}, stop)
	}

	// Attachment mirrors the simulator's seeded assignment so rolling
	// results line up with sweep cells of the same configuration.
	r := rand.New(rand.NewSource(base.AttachSeed + 7))
	clientPoints := net.ClientAttachPoints()
	serverPoints := net.ServerAttachPoints()
	clientNode := make([]model.NodeID, cat.NumClients)
	for i := range clientNode {
		clientNode[i] = clientPoints[r.Intn(len(clientPoints))]
	}
	serverNode := make([]model.NodeID, cat.NumServers)
	for i := range serverNode {
		serverNode[i] = serverPoints[r.Intn(len(serverPoints))]
	}

	src, err := w.Open()
	if err != nil {
		return RollingResult{}, Table{}, err
	}

	result := RollingResult{Batches: batches, StartIndex: startIdx, EndIndex: endIdx}
	var collectors [rollingPhases]metrics.Collector
	var overall metrics.Collector
	draining := make(map[model.NodeID]bool, batchSize)
	nextBatch := 0
	ctx := context.Background()
	for i := 0; ; i++ {
		req, ok := src.Next()
		if !ok {
			break
		}
		clk.Set(req.Time)

		// The upgrade schedule: at each stride boundary the previous batch
		// rejoins (cold) and the next drains out. Past the window's end,
		// the last batch rejoins and the cascade is whole again.
		if i >= startIdx && nextBatch <= len(batches) && i == startIdx+nextBatch*stride {
			if nextBatch > 0 {
				for _, id := range batches[nextBatch-1] {
					if !cluster.Admit(id) {
						return RollingResult{}, Table{}, fmt.Errorf("experiment: admit of node %d refused", id)
					}
					delete(draining, id)
				}
			}
			if nextBatch < len(batches) {
				for _, id := range batches[nextBatch] {
					if !cluster.Drain(ctx, id) {
						return RollingResult{}, Table{}, fmt.Errorf("experiment: drain of node %d refused", id)
					}
					draining[id] = true
				}
			}
			nextBatch++
		}

		cNode, sNode := clientNode[req.Client], serverNode[req.Server]
		res, err := cluster.Get(ctx, cNode, sNode, req.Object, req.Size)
		if err != nil {
			return RollingResult{}, Table{}, fmt.Errorf("experiment: rolling request %d: %w", i, err)
		}
		skipped := 0
		if len(draining) > 0 {
			for _, id := range net.Route(cNode, sNode).Caches {
				if draining[id] {
					skipped++
				}
			}
		}
		s := metrics.Sample{
			Latency:     res.Cost,
			Size:        req.Size,
			CacheHit:    res.ServedBy != model.NoNode,
			Hops:        res.Hops,
			Degraded:    res.Degraded,
			SkippedHops: skipped,
		}
		phase := RollingHealthy
		if i >= endIdx {
			phase = RollingRecovered
		} else if i >= startIdx {
			phase = RollingUpgrading
		}
		collectors[phase].Add(s)
		overall.Add(s)
	}
	// A schedule that never completed (trace too short for the last admit)
	// would leave nodes out of the cascade silently.
	if nextBatch <= len(batches) {
		return RollingResult{}, Table{}, fmt.Errorf("experiment: rolling schedule incomplete: %d of %d batches cycled",
			nextBatch-1, len(batches))
	}

	result.Overall = overall.Summary()
	for p := range collectors {
		result.Phases[p] = collectors[p].Summary()
	}
	result.Stats = cluster.Stats()
	result.FinalEpoch = cluster.ControlPlane().Epoch()
	result.AuditViolations = cluster.Auditor().TotalViolations()
	tot := cluster.Ledger().Totals()
	result.Predictions, result.Hits = tot.Predictions, tot.Hits

	t := Table{
		Title: fmt.Sprintf("Rolling upgrade study (%s): %d nodes in %d batches over trace [%.0f%%, %.0f%%)",
			cfg.Arch, numNodes, len(batches), cfg.StartAt*100, cfg.EndAt*100),
		XLabel:  "phase",
		YLabel:  "byte hit ratio",
		Columns: []string{"BHR", "avg cost", "degraded ratio", "skipped hops/req"},
	}
	for p := 0; p < rollingPhases; p++ {
		t.Rows = append(t.Rows, Row{Label: rollingPhaseNames[p], Values: []float64{
			result.Phases[p].ByteHitRatio,
			result.Phases[p].AvgLatency,
			result.Phases[p].DegradedRatio,
			result.Phases[p].AvgSkippedHops,
		}})
	}
	t.Rows = append(t.Rows, Row{Label: "overall", Values: []float64{
		result.Overall.ByteHitRatio,
		result.Overall.AvgLatency,
		result.Overall.DegradedRatio,
		result.Overall.AvgSkippedHops,
	}})
	return result, t, nil
}
