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

// The chaos and rolling replays split the trace at two request indices and
// account each phase apart: before the window, inside it, after it.
const (
	phaseBefore = iota
	phaseDuring
	phaseAfter
	numPhases
)

// phased is a live replay's accounting.
type phased struct {
	Overall metrics.Summary
	Phases  [numPhases]metrics.Summary
	Stats   runtime.Stats
}

// liveClock is a settable logical clock shared with the cluster.
type liveClock struct {
	mu  sync.Mutex
	now float64
}

func (c *liveClock) Set(t float64) { c.mu.Lock(); c.now = t; c.mu.Unlock() }
func (c *liveClock) Now() float64  { c.mu.Lock(); defer c.mu.Unlock(); return c.now }

// liveReplay is a cluster runtime the chaos and rolling studies replay the
// workload through, one request at a time, so a replay is deterministic:
// caches of studySize each, a logical clock at each request's time, and the
// simulator's seeded client and server attachment, so results line up with
// sweep cells of the same configuration.
type liveReplay struct {
	*runtime.Cluster
	clock          liveClock
	net            topology.Network
	client, server []model.NodeID
}

func newLiveReplay(cfg Config, net topology.Network, w Workload, audit bool) (*liveReplay, error) {
	cat := w.Catalog()
	avg := cat.AvgSize()
	capacity := int64(studySize * float64(cat.TotalBytes))
	dEntries := 0
	if avg > 0 {
		dEntries = int(cfg.DCacheFactor * float64(capacity) / avg)
	}
	lr := &liveReplay{net: net}
	cluster, err := runtime.NewCluster(runtime.Config{
		Network:       net,
		CacheBytes:    capacity,
		DCacheEntries: dEntries,
		AvgObjectSize: avg,
		Clock:         lr.clock.Now,
		EnableAudit:   audit,
	})
	if err != nil {
		return nil, err
	}
	lr.Cluster = cluster
	r := rand.New(rand.NewSource(cfg.AttachSeed + 7))
	clientPoints, serverPoints := net.ClientAttachPoints(), net.ServerAttachPoints()
	lr.client = make([]model.NodeID, cat.NumClients)
	for i := range lr.client {
		lr.client[i] = clientPoints[r.Intn(len(clientPoints))]
	}
	lr.server = make([]model.NodeID, cat.NumServers)
	for i := range lr.server {
		lr.server[i] = serverPoints[r.Intn(len(serverPoints))]
	}
	return lr, nil
}

// replay runs the workload through the cluster, calling step before each
// request, and accounts each request to its phase: before lo, in [lo, hi),
// from hi on. A request's skipped hops are the caches on its route that out
// holds when it runs.
func (lr *liveReplay) replay(w Workload, lo, hi int, out map[model.NodeID]bool, step func(i int, now float64) error) (phased, error) {
	src, err := w.Open()
	if err != nil {
		return phased{}, err
	}
	var collectors [numPhases]metrics.Collector
	var overall metrics.Collector
	ctx := context.Background()
	for i := 0; ; i++ {
		req, ok := src.Next()
		if !ok {
			break
		}
		if err := step(i, req.Time); err != nil {
			return phased{}, err
		}
		lr.clock.Set(req.Time)
		cNode, sNode := lr.client[req.Client], lr.server[req.Server]
		res, err := lr.Get(ctx, cNode, sNode, req.Object, req.Size)
		if err != nil {
			return phased{}, fmt.Errorf("experiment: request %d: %w", i, err)
		}
		skipped := 0
		if len(out) > 0 {
			for _, id := range lr.net.Route(cNode, sNode).Caches {
				if out[id] {
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
		phase := phaseBefore
		if i >= hi {
			phase = phaseAfter
		} else if i >= lo {
			phase = phaseDuring
		}
		collectors[phase].Add(s)
		overall.Add(s)
	}
	p := phased{Overall: overall.Summary(), Stats: lr.Stats()}
	for i := range collectors {
		p.Phases[i] = collectors[i].Summary()
	}
	return p, nil
}

// summary returns phase i's summary, or the whole run's for i = numPhases.
func (p phased) summary(i int) metrics.Summary {
	if i == numPhases {
		return p.Overall
	}
	return p.Phases[i]
}

// phaseRows appends to t a row per phase under the given names, then one
// for the whole run, each holding row(i) for summary(i).
func phaseRows(t *Table, names [numPhases]string, row func(i int) []float64) {
	for i, name := range append(names[:], "overall") {
		t.Rows = append(t.Rows, Row{Label: name, Values: row(i)})
	}
}
