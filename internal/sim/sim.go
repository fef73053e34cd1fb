// Package sim drives a caching scheme over a request workload on a
// cascaded caching architecture, reproducing the paper's trace-driven
// simulation methodology (§3): caches start empty, the first half of the
// trace warms the system, and statistics are collected over the second
// half only.
package sim

import (
	"fmt"
	"math/rand"

	"cascade/internal/coherency"
	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// Source streams requests in timestamp order. trace.Generator satisfies it
// directly; file-backed traces wrap trace.Reader with ReaderSource.
type Source interface {
	Next() (model.Request, bool)
}

// ReaderSource adapts a trace.Reader into a Source; a malformed line stops
// the stream and is reported by Err.
type ReaderSource struct {
	R   *trace.Reader
	err error
}

// Next implements Source.
func (s *ReaderSource) Next() (model.Request, bool) {
	req, ok, err := s.R.Next()
	if err != nil {
		s.err = err
		return model.Request{}, false
	}
	return req, ok
}

// Err returns the error that terminated the stream, if any.
func (s *ReaderSource) Err() error { return s.err }

// Config assembles one simulation run.
type Config struct {
	Scheme  scheme.Scheme
	Network topology.Network
	Catalog *trace.Catalog

	// RelativeCacheSize is each node's main-cache capacity as a fraction
	// of the total bytes of all objects (the paper's x-axis, 0.001–0.1).
	RelativeCacheSize float64

	// DCacheFactor sizes each d-cache at factor × (the average number of
	// objects the main cache can hold). The paper's default is 3.
	DCacheFactor float64

	// Seed drives the random assignment of clients and servers to
	// attachment points.
	Seed int64

	// Coherency optionally drives a synthetic object-update process and
	// enforces the selected consistency mode through the engine-native
	// substrate (paper §2 assumes fresh copies; this makes the
	// assumption measurable). Requires a coherency-capable scheme (the
	// coordinated scheme). Nil keeps the fresh-copy assumption.
	Coherency *coherency.Config

	// CostModel selects the measure the schemes optimize (§2's generic
	// cost): latency (default, the paper's choice), bandwidth or hops.
	// Latency metrics are always reported from real link delays.
	CostModel CostModel

	// TrackNodes enables per-node accounting (hits, bytes served,
	// insertions), readable via NodeStats after a run.
	TrackNodes bool

	// CapacityWeights optionally skews per-node capacity while keeping
	// the total budget fixed: node n receives weight(n)/Σweights of
	// N × RelativeCacheSize × TotalBytes. Nil gives the paper's uniform
	// sizing. D-cache entries scale with each node's capacity.
	CapacityWeights func(model.NodeID) float64
}

// NodeStats is the per-node accounting captured when TrackNodes is set.
type NodeStats struct {
	Hits       int64 // requests this cache served
	HitBytes   int64 // bytes this cache served
	Inserts    int64 // copies written into this cache
	WriteBytes int64 // bytes written into this cache
}

// Simulator replays requests through a configured scheme and network.
type Simulator struct {
	cfg        Config
	avgSize    float64
	clientNode []model.NodeID
	serverNode []model.NodeID
	costBuf    []float64
	latBuf     []float64
	nodeStats  map[model.NodeID]*NodeStats

	// routeCache memoizes Network.Route per (client node, server node)
	// pair — routes are static for a run, and the pair space (≤ n·(n+1))
	// is far smaller than the client×server space. A cached entry is
	// recognizable by its non-nil Caches slice (routes always contain at
	// least the client's own cache).
	routeCache []topology.Route
	numNodes   int

	// coherency state (nil when Config.Coherency is nil): the origin-side
	// generation authority and the Poisson update process driving it.
	auth *coherency.Authority
	proc *coherency.Process
}

// coherencyScheme is the capability a scheme must provide for a coherency
// run: accept the shared generation authority and the enforced mode.
// Coordinated implements it; the baselines do not (the paper's baselines
// have no piggyback channel to carry invalidations).
type coherencyScheme interface {
	SetCoherency(auth *coherency.Authority, mode coherency.Mode, lifetime float64)
}

// New validates the configuration, sizes and resets the scheme's caches,
// and assigns clients and servers to attachment points.
func New(cfg Config) (*Simulator, error) {
	if cfg.Scheme == nil || cfg.Network == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("sim: scheme, network and catalog are required")
	}
	if cfg.RelativeCacheSize < 0 || cfg.RelativeCacheSize > 1 {
		return nil, fmt.Errorf("sim: relative cache size %v outside [0, 1]", cfg.RelativeCacheSize)
	}
	if cfg.DCacheFactor == 0 {
		cfg.DCacheFactor = 3
	}
	if cfg.DCacheFactor < 0 {
		cfg.DCacheFactor = 0
	}

	s := &Simulator{cfg: cfg, avgSize: cfg.Catalog.AvgSize()}
	capacity := int64(cfg.RelativeCacheSize * float64(cfg.Catalog.TotalBytes))
	dEntries := 0
	if s.avgSize > 0 {
		dEntries = int(cfg.DCacheFactor * float64(capacity) / s.avgSize)
	}

	n := cfg.Network.NumCaches()
	nodes := make([]model.NodeID, n)
	for i := range nodes {
		nodes[i] = model.NodeID(i)
	}
	budgets := scheme.Uniform(nodes, capacity, dEntries)
	if cfg.CapacityWeights != nil {
		// Redistribute the same total budget by the given weights.
		total := float64(capacity) * float64(n)
		var sum float64
		weights := make(map[model.NodeID]float64, n)
		for _, nd := range nodes {
			w := cfg.CapacityWeights(nd)
			if w < 0 {
				w = 0
			}
			weights[nd] = w
			sum += w
		}
		if sum > 0 {
			for _, nd := range nodes {
				cap := int64(total * weights[nd] / sum)
				d := 0
				if s.avgSize > 0 {
					d = int(cfg.DCacheFactor * float64(cap) / s.avgSize)
				}
				budgets[nd] = scheme.NodeBudget{CacheBytes: cap, DCacheEntries: d}
			}
		}
	}
	cfg.Scheme.Configure(budgets)

	if cfg.Coherency != nil {
		cs, ok := cfg.Scheme.(coherencyScheme)
		if !ok {
			return nil, fmt.Errorf("sim: scheme %s does not support coherency", cfg.Scheme.Name())
		}
		s.auth = coherency.NewAuthority()
		cs.SetCoherency(s.auth, cfg.Coherency.Mode, cfg.Coherency.Lifetime)
		s.proc = coherency.NewProcess(*cfg.Coherency, cfg.Catalog.Objects, s.auth)
	}

	// Random but seed-deterministic attachment, as in §3.2 ("randomly
	// allocated to the MAN nodes" / "randomly allocated to the leaf
	// nodes").
	r := rand.New(rand.NewSource(cfg.Seed))
	clientPoints := cfg.Network.ClientAttachPoints()
	serverPoints := cfg.Network.ServerAttachPoints()
	s.clientNode = make([]model.NodeID, cfg.Catalog.NumClients)
	for i := range s.clientNode {
		s.clientNode[i] = clientPoints[r.Intn(len(clientPoints))]
	}
	s.serverNode = make([]model.NodeID, cfg.Catalog.NumServers)
	for i := range s.serverNode {
		s.serverNode[i] = serverPoints[r.Intn(len(serverPoints))]
	}
	if cfg.TrackNodes {
		s.nodeStats = make(map[model.NodeID]*NodeStats, n)
	}
	// Server attachment may be NoNode (= −1, hierarchy), hence the +1
	// offset in the cache index.
	s.numNodes = n
	s.routeCache = make([]topology.Route, n*(n+1))
	return s, nil
}

// route resolves the delivery path for a request, memoizing per node pair.
func (s *Simulator) route(client model.ClientID, server model.ServerID) topology.Route {
	cn := s.clientNode[client]
	sn := s.serverNode[server]
	idx := int(cn)*(s.numNodes+1) + int(sn) + 1
	if rt := s.routeCache[idx]; rt.Caches != nil {
		return rt
	}
	rt := s.cfg.Network.Route(cn, sn)
	s.routeCache[idx] = rt
	return rt
}

// NodeStats returns a copy of the per-node accounting (empty unless
// Config.TrackNodes was set).
func (s *Simulator) NodeStats() map[model.NodeID]NodeStats {
	out := make(map[model.NodeID]NodeStats, len(s.nodeStats))
	for n, st := range s.nodeStats {
		out[n] = *st
	}
	return out
}

func (s *Simulator) nodeStat(n model.NodeID) *NodeStats {
	st, ok := s.nodeStats[n]
	if !ok {
		st = &NodeStats{}
		s.nodeStats[n] = st
	}
	return st
}

// ClientNode returns the attachment point of a client.
func (s *Simulator) ClientNode(c model.ClientID) model.NodeID { return s.clientNode[c] }

// ServerNode returns the attachment point of a server.
func (s *Simulator) ServerNode(v model.ServerID) model.NodeID { return s.serverNode[v] }

// Process replays a single request and returns its accounting.
func (s *Simulator) Process(req model.Request) metrics.Sample {
	route := s.route(req.Client, req.Server)

	// Decision costs under the configured model; the default is the
	// paper's §3.2 choice, link delay scaled by object size.
	if cap(s.costBuf) < len(route.UpCost) {
		s.costBuf = make([]float64, len(route.UpCost))
	}
	costs := s.costBuf[:len(route.UpCost)]
	s.cfg.CostModel.linkCosts(route, req.Size, s.avgSize, costs)
	path := scheme.Path{Nodes: route.Caches, UpCost: costs}

	if s.proc != nil {
		s.proc.Advance(req.Time)
	}

	out := s.cfg.Scheme.Process(req.Time, req.Object, req.Size, path)

	// Latency accounting always uses real (size-scaled) link delays, even
	// when the schemes optimize another cost measure.
	latCosts := costs
	if s.cfg.CostModel != CostLatency {
		if cap(s.latBuf) < len(route.UpCost) {
			s.latBuf = make([]float64, len(route.UpCost))
		}
		latCosts = s.latBuf[:len(route.UpCost)]
		CostLatency.linkCosts(route, req.Size, s.avgSize, latCosts)
	}
	latency := 0.0
	for i := 0; i < out.HitIndex; i++ {
		latency += latCosts[i]
	}

	sample := metrics.Sample{
		Latency:        latency,
		Size:           req.Size,
		Inserts:        len(out.Placed),
		WriteBytes:     int64(len(out.Placed)) * req.Size,
		PiggybackBytes: out.PiggybackBytes,
	}
	if out.HitIndex < path.OriginIndex() {
		sample.CacheHit = true
		sample.ReadBytes = req.Size
		sample.Hops = out.HitIndex
	} else {
		sample.Hops = route.Hops()
	}

	if s.auth != nil {
		// Omniscient freshness measurement: a cache hit is stale when the
		// served copy's generation lags the authority's current one — the
		// protocol may not even be able to know (ModeNone carries nothing
		// on the wire), but the simulator can.
		sample.StaleHit = sample.CacheHit && out.ServedGen < s.auth.Gen(req.Object)
		// A TTL expiry turned a would-be hit into a revalidating miss;
		// the latency already reflects the full refetch path organically.
		sample.Refetch = out.Refetch
	}
	if s.nodeStats != nil {
		if sample.CacheHit {
			st := s.nodeStat(path.Nodes[out.HitIndex])
			st.Hits++
			st.HitBytes += req.Size
		}
		for _, idx := range out.Placed {
			st := s.nodeStat(path.Nodes[idx])
			st.Inserts++
			st.WriteBytes += req.Size
		}
	}
	return sample
}

// Authority returns the generation authority of a coherency run (nil when
// coherency is off) — experiments and tests read current generations, and
// write-driving tests bump it through the scheme's Invalidate.
func (s *Simulator) Authority() *coherency.Authority { return s.auth }

// Updates returns how many synthetic object updates the coherency process
// has generated so far (0 when coherency is off).
func (s *Simulator) Updates() int64 {
	if s.proc == nil {
		return 0
	}
	return s.proc.Updates
}

// RunTimeline replays the entire stream and buckets statistics into
// fixed-length time windows, exposing transient behaviour (no warmup is
// discarded; the warm-up itself is part of the timeline).
func (s *Simulator) RunTimeline(src Source, window float64) []metrics.Window {
	tl := metrics.NewTimeline(window)
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		tl.Add(req.Time, s.Process(req))
	}
	return tl.Windows()
}

// Run replays the stream, discarding the first warmup requests (the
// paper's start-up period) and collecting statistics for the rest. It
// returns the summary and the number of requests replayed.
func (s *Simulator) Run(src Source, warmup int) (metrics.Summary, int) {
	var col metrics.Collector
	replayed := 0
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		sample := s.Process(req)
		replayed++
		if replayed > warmup {
			col.Add(sample)
		}
	}
	return col.Summary(), replayed
}
