package experiment

import (
	"fmt"
	"io"
	"math/rand"

	"cascade/internal/model"
)

// The chaos study's crash schedule: a fifth of the cache nodes, drawn by
// Config.TopoSeed, crash a quarter of the way into the trace and recover at
// 60 % of it.
const (
	chaosFailFraction = 0.2
	chaosFailAt       = 0.25
	chaosHealAt       = 0.6
)

var chaosPhaseNames = [numPhases]string{"healthy", "degraded", "recovered"}

// chaosResult pairs the undisturbed and faulted replays.
type chaosResult struct {
	// Failed is the deterministic crash schedule (node IDs).
	Failed []model.NodeID
	// FailIndex and HealIndex are the request indices where the schedule
	// fired.
	FailIndex, HealIndex int

	Baseline phased // no faults
	Faulted  phased // nodes down between FailIndex and HealIndex
}

// RecoveryGap is the relative byte-hit-ratio shortfall of the faulted
// run's recovered phase against the no-fault run's same phase — the
// headline liveness metric: how completely the cascade heals.
func (r chaosResult) RecoveryGap() float64 {
	base := r.Baseline.Phases[phaseAfter].ByteHitRatio
	if base == 0 {
		return 0
	}
	return (base - r.Faulted.Phases[phaseAfter].ByteHitRatio) / base
}

// chaosStudy is runChaos with its progress lines.
func chaosStudy(arch Arch, cfg Config, log io.Writer) (Table, error) {
	fmt.Fprintf(log, "running %s chaos replay (%.0f%% of nodes crash at %.0f%% of trace)...\n",
		arch, chaosFailFraction*100, chaosFailAt*100)
	res, t, err := runChaos(arch, cfg)
	if err != nil {
		return Table{}, err
	}
	fmt.Fprintf(log, "chaos %s: crashed nodes %v, routed around %d hops, %d degraded serves, recovery gap %.1f%%\n",
		arch, res.Failed, res.Faulted.Stats.RoutedAround,
		res.Faulted.Stats.OriginFallbacks, res.RecoveryGap()*100)
	return t, nil
}

// runChaos replays the workload through the cluster runtime twice — clean
// and with the crash schedule — and tabulates byte hit ratio, degraded
// serves and routed-around hops per phase. Every request of both runs must
// terminate (the runtime's deadline guarantees it); an error from either
// replay is a liveness violation.
func runChaos(arch Arch, cfg Config) (chaosResult, Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	numNodes := net.NumCaches()

	numFail := int(chaosFailFraction*float64(numNodes) + 0.5)
	if numFail < 1 {
		numFail = 1
	}
	if numFail > numNodes {
		numFail = numNodes
	}
	perm := rand.New(rand.NewSource(cfg.TopoSeed)).Perm(numNodes)
	failed := make([]model.NodeID, numFail)
	for i := range failed {
		failed[i] = model.NodeID(perm[i])
	}

	n := w.Len()
	failIdx := int(chaosFailAt * float64(n))
	healIdx := int(chaosHealAt * float64(n))
	if failIdx >= healIdx || healIdx >= n {
		return chaosResult{}, Table{}, fmt.Errorf("experiment: chaos window [%d, %d) does not fit %d requests", failIdx, healIdx, n)
	}

	result := chaosResult{Failed: failed, FailIndex: failIdx, HealIndex: healIdx}
	// replay runs the workload through a fresh cluster, firing the crash
	// schedule when crash is set.
	replay := func(crash bool) (phased, error) {
		lr, err := newLiveReplay(cfg, net, w, false)
		if err != nil {
			return phased{}, err
		}
		defer lr.Close()
		down := make(map[model.NodeID]bool, len(failed))
		return lr.replay(w, failIdx, healIdx, down, func(i int, _ float64) error {
			switch {
			case crash && i == failIdx:
				for _, id := range failed {
					lr.Fail(id)
					down[id] = true
				}
			case crash && i == healIdx:
				for _, id := range failed {
					lr.Recover(id)
					delete(down, id)
				}
			}
			return nil
		})
	}
	var err error
	if result.Baseline, err = replay(false); err != nil {
		return chaosResult{}, Table{}, err
	}
	if result.Faulted, err = replay(true); err != nil {
		return chaosResult{}, Table{}, err
	}

	t := Table{
		Title: fmt.Sprintf("Chaos study (%s): %d/%d nodes down over trace [%.0f%%, %.0f%%)",
			arch, numFail, numNodes, chaosFailAt*100, chaosHealAt*100),
		XLabel:  "phase",
		YLabel:  "byte hit ratio",
		Columns: []string{"no-fault BHR", "faulted BHR", "degraded ratio", "skipped hops/req"},
	}
	phaseRows(&t, chaosPhaseNames, func(i int) []float64 {
		base, faulted := result.Baseline.summary(i), result.Faulted.summary(i)
		return []float64{base.ByteHitRatio, faulted.ByteHitRatio, faulted.DegradedRatio, faulted.AvgSkippedHops}
	})
	return result, t, nil
}
