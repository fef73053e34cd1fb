package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/runtime"
	"cascade/internal/topology"
)

// Chaos phase indices: the trace is split at the fail and heal points, so
// each run reports metrics for the window before any failure, the window
// with nodes down, and the window after recovery.
const (
	ChaosHealthy = iota
	ChaosDegraded
	ChaosRecovered
	chaosPhases
)

var chaosPhaseNames = [chaosPhases]string{"healthy", "degraded", "recovered"}

// ChaosConfig parameterizes a fault-injection replay over the live cluster
// runtime: the same trace is run twice — once undisturbed, once with a
// deterministic subset of nodes crashed mid-trace and recovered later —
// and the two runs are compared phase by phase.
type ChaosConfig struct {
	Arch Arch
	Base Config

	// CacheSize is the per-node relative cache size (default 1%).
	CacheSize float64
	// FailFraction is the fraction of cache nodes crashed (default 0.2).
	FailFraction float64
	// FailAt and HealAt are trace positions (fractions of the request
	// count) where the crash and recovery happen (defaults 0.25, 0.6).
	FailAt float64
	HealAt float64
	// Seed drives the node selection; the same seed reproduces the exact
	// fault schedule (default 1).
	Seed int64
}

// ChaosRun is one replay's accounting.
type ChaosRun struct {
	Overall metrics.Summary
	Phases  [chaosPhases]metrics.Summary
	Stats   runtime.Stats
}

// ChaosResult pairs the undisturbed and faulted replays.
type ChaosResult struct {
	// Failed is the deterministic crash schedule (node IDs).
	Failed []model.NodeID
	// FailIndex and HealIndex are the request indices where the schedule
	// fired.
	FailIndex, HealIndex int

	Baseline ChaosRun // no faults
	Faulted  ChaosRun // nodes down between FailIndex and HealIndex
}

// RecoveryGap is the relative byte-hit-ratio shortfall of the faulted
// run's recovered phase against the no-fault run's same phase — the
// headline liveness metric: how completely the cascade heals.
func (r ChaosResult) RecoveryGap() float64 {
	base := r.Baseline.Phases[ChaosRecovered].ByteHitRatio
	if base == 0 {
		return 0
	}
	return (base - r.Faulted.Phases[ChaosRecovered].ByteHitRatio) / base
}

// chaosClock is a settable logical clock shared with the cluster.
type chaosClock struct {
	mu  sync.Mutex
	now float64
}

func (c *chaosClock) Set(t float64) { c.mu.Lock(); c.now = t; c.mu.Unlock() }
func (c *chaosClock) Now() float64  { c.mu.Lock(); defer c.mu.Unlock(); return c.now }

// ChaosStudy replays the workload through the cluster runtime twice — clean
// and with the crash schedule — and tabulates byte hit ratio, degraded
// serves and routed-around hops per phase. Every request of both runs must
// terminate (the runtime's deadline guarantees it); an error from either
// replay is a liveness violation.
func ChaosStudy(cfg ChaosConfig) (ChaosResult, Table, error) {
	base := cfg.Base
	base.setDefaults()
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 0.01
	}
	if cfg.FailFraction == 0 {
		cfg.FailFraction = 0.2
	}
	if cfg.FailAt == 0 {
		cfg.FailAt = 0.25
	}
	if cfg.HealAt == 0 {
		cfg.HealAt = 0.6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	w := base.workload()
	net := base.Network(cfg.Arch)
	numNodes := net.NumCaches()

	numFail := int(cfg.FailFraction*float64(numNodes) + 0.5)
	if numFail < 1 {
		numFail = 1
	}
	if numFail > numNodes {
		numFail = numNodes
	}
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(numNodes)
	failed := make([]model.NodeID, numFail)
	for i := range failed {
		failed[i] = model.NodeID(perm[i])
	}

	n := w.Len()
	failIdx := int(cfg.FailAt * float64(n))
	healIdx := int(cfg.HealAt * float64(n))
	if failIdx >= healIdx || healIdx >= n {
		return ChaosResult{}, Table{}, fmt.Errorf("experiment: chaos window [%d, %d) does not fit %d requests", failIdx, healIdx, n)
	}

	result := ChaosResult{Failed: failed, FailIndex: failIdx, HealIndex: healIdx}
	var err error
	if result.Baseline, err = chaosReplay(cfg, base, net, w, nil, failIdx, healIdx); err != nil {
		return ChaosResult{}, Table{}, err
	}
	if result.Faulted, err = chaosReplay(cfg, base, net, w, failed, failIdx, healIdx); err != nil {
		return ChaosResult{}, Table{}, err
	}

	t := Table{
		Title: fmt.Sprintf("Chaos study (%s): %d/%d nodes down over trace [%.0f%%, %.0f%%)",
			cfg.Arch, numFail, numNodes, cfg.FailAt*100, cfg.HealAt*100),
		XLabel:  "phase",
		YLabel:  "byte hit ratio",
		Columns: []string{"no-fault BHR", "faulted BHR", "degraded ratio", "skipped hops/req"},
	}
	for p := 0; p < chaosPhases; p++ {
		t.Rows = append(t.Rows, Row{Label: chaosPhaseNames[p], Values: []float64{
			result.Baseline.Phases[p].ByteHitRatio,
			result.Faulted.Phases[p].ByteHitRatio,
			result.Faulted.Phases[p].DegradedRatio,
			result.Faulted.Phases[p].AvgSkippedHops,
		}})
	}
	t.Rows = append(t.Rows, Row{Label: "overall", Values: []float64{
		result.Baseline.Overall.ByteHitRatio,
		result.Faulted.Overall.ByteHitRatio,
		result.Faulted.Overall.DegradedRatio,
		result.Faulted.Overall.AvgSkippedHops,
	}})
	return result, t, nil
}

// chaosReplay runs the workload through a fresh cluster, firing the crash
// schedule (when failed is non-empty) at the given request indices.
// Requests are issued serially, so the replay is fully deterministic.
func chaosReplay(cfg ChaosConfig, base Config, net topology.Network, w Workload, failed []model.NodeID, failIdx, healIdx int) (ChaosRun, error) {
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
	})
	if err != nil {
		return ChaosRun{}, err
	}
	defer cluster.Close()

	// Attachment mirrors the simulator's seeded assignment so chaos
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
		return ChaosRun{}, err
	}

	var collectors [chaosPhases]metrics.Collector
	var overall metrics.Collector
	down := make(map[model.NodeID]bool, len(failed))
	ctx := context.Background()
	for i := 0; ; i++ {
		req, ok := src.Next()
		if !ok {
			break
		}
		if len(failed) > 0 {
			switch i {
			case failIdx:
				for _, id := range failed {
					cluster.Fail(id)
					down[id] = true
				}
			case healIdx:
				for _, id := range failed {
					cluster.Recover(id)
					delete(down, id)
				}
			}
		}
		clk.Set(req.Time)
		cNode, sNode := clientNode[req.Client], serverNode[req.Server]
		res, err := cluster.Get(ctx, cNode, sNode, req.Object, req.Size)
		if err != nil {
			return ChaosRun{}, fmt.Errorf("experiment: chaos request %d: %w", i, err)
		}
		skipped := 0
		if len(down) > 0 {
			for _, id := range net.Route(cNode, sNode).Caches {
				if down[id] {
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
		phase := ChaosHealthy
		if i >= healIdx {
			phase = ChaosRecovered
		} else if i >= failIdx {
			phase = ChaosDegraded
		}
		collectors[phase].Add(s)
		overall.Add(s)
	}

	run := ChaosRun{Overall: overall.Summary(), Stats: cluster.Stats()}
	for p := range collectors {
		run.Phases[p] = collectors[p].Summary()
	}
	return run, nil
}
