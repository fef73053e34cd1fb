package topology

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"cascade/internal/model"
)

// NodeKind classifies the nodes of an en-route topology.
type NodeKind uint8

// Node kinds of the two-level Tiers-style topology.
const (
	WANNode NodeKind = iota
	manNode
)

// TiersConfig parameterizes the Tiers-style random topology of paper §3.2.
// The defaults reproduce Table 1: 100 nodes (50 WAN + 50 MAN), ≈173 links,
// and a WAN:MAN mean-delay ratio of about 8:1.
type TiersConfig struct {
	WANNodes    int // backbone nodes (default 50)
	MANs        int // number of metropolitan networks (default 10)
	NodesPerMAN int // nodes in each MAN (default 5)
	// WANExtraLinks and MANExtraLinks are redundancy links added beyond
	// the spanning trees (defaults 25 and 5 per MAN). Zero selects the
	// default; pass a negative value for none.
	WANExtraLinks int
	MANExtraLinks int
	WANDelayMean  float64 // mean WAN link delay, seconds (default 0.146)
	MANDelayMean  float64 // mean MAN link delay, seconds (default 0.018)
	// DelaySpread s draws each delay uniformly from mean·[1−s, 1+s]
	// (default 0.5). Zero selects the default; pass a negative value for
	// constant delays.
	DelaySpread float64
	// WANLocality is the attachment window of the WAN spanning tree: node
	// i links to a uniform node in the last WANLocality predecessors,
	// which stretches the backbone diameter toward the ~12-hop mean paths
	// of the paper's sample topology (default 2; zero selects the
	// default, large values give a uniform random recursive tree).
	WANLocality int
}

// DefaultTiersConfig returns the Table 1 configuration.
func DefaultTiersConfig() TiersConfig {
	return TiersConfig{
		WANNodes:      50,
		MANs:          10,
		NodesPerMAN:   5,
		WANExtraLinks: 25,
		MANExtraLinks: 5,
		WANDelayMean:  0.146,
		MANDelayMean:  0.018,
		DelaySpread:   0.5,
		WANLocality:   2,
	}
}

func (c *TiersConfig) setDefaults() {
	d := DefaultTiersConfig()
	if c.WANNodes <= 0 {
		c.WANNodes = d.WANNodes
	}
	if c.MANs <= 0 {
		c.MANs = d.MANs
	}
	if c.NodesPerMAN <= 0 {
		c.NodesPerMAN = d.NodesPerMAN
	}
	switch {
	case c.WANExtraLinks == 0:
		c.WANExtraLinks = d.WANExtraLinks
	case c.WANExtraLinks < 0:
		c.WANExtraLinks = 0
	}
	switch {
	case c.MANExtraLinks == 0:
		c.MANExtraLinks = d.MANExtraLinks
	case c.MANExtraLinks < 0:
		c.MANExtraLinks = 0
	}
	if c.WANDelayMean <= 0 {
		c.WANDelayMean = d.WANDelayMean
	}
	if c.MANDelayMean <= 0 {
		c.MANDelayMean = d.MANDelayMean
	}
	switch {
	case c.DelaySpread == 0:
		c.DelaySpread = d.DelaySpread
	case c.DelaySpread < 0 || c.DelaySpread >= 1:
		c.DelaySpread = 0
	}
	if c.WANLocality <= 0 {
		c.WANLocality = d.WANLocality
	}
}

// EnRoute is an en-route caching architecture: one transparent cache at
// every WAN and MAN node, with shortest-path routing toward each origin
// server. Clients and origin servers attach to MAN nodes only (the WAN is
// pure backbone).
type EnRoute struct {
	G     *Graph
	Kinds []NodeKind

	manNodes []model.NodeID

	mu     sync.RWMutex // guards the memoization maps and the disabled set
	trees  map[model.NodeID]treeEntry
	routes map[[2]model.NodeID]routeEntry

	// fullTrees memoizes exclusion-free shortest-path trees, the relay
	// fallback for clients the excluding tree cannot reach (see Route). The
	// graph is immutable, so these entries never invalidate.
	fullTrees map[model.NodeID][]model.NodeID

	// disabled nodes are excluded from transit when (re)computing routes;
	// see SetNodeEnabled. enableVer counts re-enables so entries computed
	// under exclusions can be lazily recomputed once nodes return.
	disabled  map[model.NodeID]bool
	enableVer uint64
}

// treeEntry memoizes one shortest-path tree (server node → parent array).
// excl marks trees computed while some nodes were disabled; such entries go
// stale (ver < enableVer) when any node is re-enabled, because a better
// path through the returning node may now exist. Exclusion-free entries are
// never invalidated by enables.
type treeEntry struct {
	parent []model.NodeID
	excl   bool
	ver    uint64
}

type routeEntry struct {
	rt   Route
	excl bool
	ver  uint64
}

// GenerateTiers builds a random EnRoute topology. The generator follows the
// two-level structure of Tiers: a connected random WAN (spanning tree plus
// redundancy links), and per MAN a connected random subnetwork whose
// gateway attaches to a uniformly chosen WAN node. Link delays are drawn
// uniformly around the configured means. All randomness comes from r.
func GenerateTiers(cfg TiersConfig, r *rand.Rand) *EnRoute {
	cfg.setDefaults()
	total := cfg.WANNodes + cfg.MANs*cfg.NodesPerMAN
	g := newGraph(total)
	kinds := make([]NodeKind, total)

	delay := func(mean float64) float64 {
		return mean * (1 - cfg.DelaySpread + 2*cfg.DelaySpread*r.Float64())
	}

	// WAN: random spanning tree with local attachment (node i links to
	// one of its WANLocality most recent predecessors, stretching the
	// backbone diameter), plus redundancy links.
	for i := 1; i < cfg.WANNodes; i++ {
		lo := i - cfg.WANLocality
		if lo < 0 {
			lo = 0
		}
		g.AddEdge(model.NodeID(i), model.NodeID(lo+r.Intn(i-lo)), delay(cfg.WANDelayMean))
	}
	// WAN redundancy links stay local (within twice the attachment
	// window) so they add path diversity without collapsing the backbone
	// diameter.
	addLocalExtras(g, r, cfg.WANNodes, cfg.WANExtraLinks, 2*cfg.WANLocality, func() float64 { return delay(cfg.WANDelayMean) })

	// MANs: each a random spanning tree, gateway linked to a random WAN
	// node. Gateway links use MAN-class delays (the last hop into the
	// backbone is metropolitan infrastructure).
	var manNodes []model.NodeID
	for man := 0; man < cfg.MANs; man++ {
		base := cfg.WANNodes + man*cfg.NodesPerMAN
		for i := 0; i < cfg.NodesPerMAN; i++ {
			id := model.NodeID(base + i)
			kinds[id] = manNode
			manNodes = append(manNodes, id)
			if i > 0 {
				g.AddEdge(id, model.NodeID(base+r.Intn(i)), delay(cfg.MANDelayMean))
			}
		}
		gateway := model.NodeID(base)
		g.AddEdge(gateway, model.NodeID(r.Intn(cfg.WANNodes)), delay(cfg.MANDelayMean))
		addExtras(g, r, base, cfg.NodesPerMAN, cfg.MANExtraLinks, func() float64 { return delay(cfg.MANDelayMean) })
	}

	return &EnRoute{
		G:         g,
		Kinds:     kinds,
		manNodes:  manNodes,
		trees:     make(map[model.NodeID]treeEntry),
		routes:    make(map[[2]model.NodeID]routeEntry),
		disabled:  make(map[model.NodeID]bool),
		fullTrees: make(map[model.NodeID][]model.NodeID),
	}
}

// addLocalExtras adds up to want redundancy links between WAN nodes whose
// indices differ by at most window.
func addLocalExtras(g *Graph, r *rand.Rand, n, want, window int, delay func() float64) {
	if n < 2 {
		return
	}
	attempts := 0
	for added := 0; added < want && attempts < 50*want+100; attempts++ {
		u := r.Intn(n)
		lo, hi := u-window, u+window
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		v := lo + r.Intn(hi-lo+1)
		if u == v || g.HasEdge(model.NodeID(u), model.NodeID(v)) {
			continue
		}
		g.AddEdge(model.NodeID(u), model.NodeID(v), delay())
		added++
	}
}

// addExtras adds up to want redundancy links among nodes [base, base+n),
// skipping pairs already linked. It gives up silently once the subnetwork
// is dense enough that random probing stops finding free pairs.
func addExtras(g *Graph, r *rand.Rand, base, n, want int, delay func() float64) {
	if n < 2 {
		return
	}
	attempts := 0
	for added := 0; added < want && attempts < 50*want+100; attempts++ {
		u := model.NodeID(base + r.Intn(n))
		v := model.NodeID(base + r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v, delay())
		added++
	}
}

// NumCaches returns the total node count (every node hosts an en-route
// cache).
func (e *EnRoute) NumCaches() int { return e.G.NumNodes() }

// ClientAttachPoints returns the MAN nodes.
func (e *EnRoute) ClientAttachPoints() []model.NodeID { return e.manNodes }

// ServerAttachPoints returns the MAN nodes (origin servers are co-located
// with MAN nodes).
func (e *EnRoute) ServerAttachPoints() []model.NodeID { return e.manNodes }

// Route returns the shortest-path route from the client's node to the
// server's node. The route includes the cache at the server's own node
// (whose up-cost to the co-located origin is zero). Routes are memoized;
// the method is safe for concurrent use (the runtime cluster resolves
// routes from many goroutines).
func (e *EnRoute) Route(client, server model.NodeID) Route {
	key := [2]model.NodeID{client, server}
	e.mu.RLock()
	re, ok := e.routes[key]
	fresh := ok && (!re.excl || re.ver == e.enableVer)
	e.mu.RUnlock()
	if fresh {
		return re.rt
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if re, ok := e.routes[key]; ok && (!re.excl || re.ver == e.enableVer) {
		return re.rt
	}
	excl := len(e.disabled) > 0
	te, ok := e.trees[server]
	if !ok || (te.excl && te.ver != e.enableVer) {
		var parent []model.NodeID
		if excl {
			parent, _ = e.G.ShortestPathTreeExcluding(server, func(n model.NodeID) bool { return e.disabled[n] })
		} else {
			parent, _ = e.G.ShortestPathTree(server)
		}
		te = treeEntry{parent: parent, excl: excl, ver: e.enableVer}
		e.trees[server] = te
	}
	parent := te.parent
	if excl && !treeReaches(parent, client, server) {
		// The disabled set cut the client off — a drained or down node is
		// a cut vertex on every remaining path (a MAN gateway, say). The
		// wire contract for such hops is relay, not removal: fall back to
		// the exclusion-free tree, keeping the disabled node on the path.
		// The protocol layer skips it per request (the runtime folds its
		// link cost exactly as the replay ships a "no descriptor" entry),
		// so traffic keeps flowing through a mid-upgrade cut vertex.
		parent = e.fullTreeLocked(server)
	}
	var caches []model.NodeID
	var upCost []float64
	for u := client; u != server; u = parent[u] {
		p := parent[u]
		if p == model.NoNode {
			panic(fmt.Sprintf("topology: node %d cannot reach server node %d", client, server))
		}
		caches = append(caches, u)
		upCost = append(upCost, e.G.EdgeDelay(u, p))
	}
	caches = append(caches, server)
	upCost = append(upCost, 0) // origin co-located with the server's node
	rt := Route{Caches: caches, UpCost: upCost}
	e.routes[key] = routeEntry{rt: rt, excl: excl, ver: e.enableVer}
	return rt
}

// SetNodeEnabled removes a node from, or returns it to, the routing view.
// A disabled node never transits a route: the memoized trees and routes
// that traverse it are invalidated eagerly and precisely (entries that do
// not touch the node keep their identical, already-computed slices), and
// recomputation works on the graph with disabled nodes excluded from
// transit. Re-enabling is lazy: only entries that were computed under
// exclusions recompute, on their next use.
//
// Requests already holding a Route keep it — the epoch guard in the control
// plane, not the topology, decides when the old view has fully drained.
func (e *EnRoute) SetNodeEnabled(id model.NodeID, enabled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if enabled {
		if !e.disabled[id] {
			return
		}
		delete(e.disabled, id)
		e.enableVer++
		return
	}
	if e.disabled[id] {
		return
	}
	e.disabled[id] = true
	for root, te := range e.trees {
		if treeTraverses(te.parent, root, id) {
			delete(e.trees, root)
		}
	}
	for key, re := range e.routes {
		if routeTraverses(re.rt, id) {
			delete(e.routes, key)
		}
	}
}

// NodeEnabled reports whether the node currently participates in routing.
func (e *EnRoute) NodeEnabled(id model.NodeID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return !e.disabled[id]
}

// fullTreeLocked returns the exclusion-free shortest-path tree toward
// server, memoized for the life of the (immutable) graph. Callers hold e.mu.
func (e *EnRoute) fullTreeLocked(server model.NodeID) []model.NodeID {
	if p, ok := e.fullTrees[server]; ok {
		return p
	}
	p, _ := e.G.ShortestPathTree(server)
	if e.fullTrees == nil { // hand-wired EnRoute literals in tests
		e.fullTrees = make(map[model.NodeID][]model.NodeID)
	}
	e.fullTrees[server] = p
	return p
}

// treeReaches reports whether the parent array connects from all the way to
// root.
func treeReaches(parent []model.NodeID, from, root model.NodeID) bool {
	for u := from; u != root; u = parent[u] {
		if parent[u] == model.NoNode {
			return false
		}
	}
	return true
}

// treeTraverses reports whether any path in the shortest-path tree can
// route through id: id is the root, or some node's parent. A leaf node only
// appears in routes that start at it, which routeTraverses catches.
func treeTraverses(parent []model.NodeID, root, id model.NodeID) bool {
	if root == id {
		return true
	}
	for _, p := range parent {
		if p == id {
			return true
		}
	}
	return false
}

func routeTraverses(rt Route, id model.NodeID) bool {
	for _, c := range rt.Caches {
		if c == id {
			return true
		}
	}
	return false
}

// Parent returns the node's minimum-delay enabled neighbor (lowest ID on
// ties), or NoNode when every neighbor is disabled. A draining node spills
// its descriptors to this parent before departing.
func (e *EnRoute) Parent(id model.NodeID) model.NodeID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	best := model.NoNode
	bestDelay := -1.0
	for _, edge := range e.G.Neighbors(id) {
		if e.disabled[edge.To] {
			continue
		}
		if best == model.NoNode || edge.Delay < bestDelay ||
			(edge.Delay == bestDelay && edge.To < best) {
			best, bestDelay = edge.To, edge.Delay
		}
	}
	return best
}

// Validate rejects topologies the control plane cannot operate: a cascade
// needs at least two caches (a single node has no parent to spill to when
// drained), a connected graph (a disconnected node can neither route nor
// drain), and at least one client/server attach point.
func (e *EnRoute) Validate() error {
	if n := e.G.NumNodes(); n < 2 {
		return fmt.Errorf("topology: degenerate cascade with %d node(s); need at least 2 so a draining node has a parent", n)
	}
	if !e.G.Connected() {
		return fmt.Errorf("topology: graph is disconnected; every node must be reachable to route and drain")
	}
	if len(e.manNodes) == 0 {
		return fmt.Errorf("topology: no MAN attach points for clients and servers")
	}
	return nil
}

// Description summarizes a generated en-route topology in the terms of
// Table 1 of the paper.
type Description struct {
	TotalNodes   int
	WANNodes     int
	MANNodes     int
	Links        int
	AvgWANDelay  float64 // mean delay of WAN–WAN links
	AvgMANDelay  float64 // mean delay of links with a MAN endpoint
	AvgRouteHops float64 // mean cache-path length over all MAN pairs
}

// Describe measures the generated topology.
func (e *EnRoute) Describe() Description {
	d := Description{TotalNodes: e.G.NumNodes()}
	for _, k := range e.Kinds {
		if k == WANNode {
			d.WANNodes++
		} else {
			d.MANNodes++
		}
	}
	d.Links = e.G.NumEdges()
	var wanSum, manSum float64
	var wanN, manN int
	for u := 0; u < e.G.NumNodes(); u++ {
		for _, edge := range e.G.Neighbors(model.NodeID(u)) {
			if edge.To < model.NodeID(u) {
				continue // count each undirected link once
			}
			if e.Kinds[u] == WANNode && e.Kinds[edge.To] == WANNode {
				wanSum += edge.Delay
				wanN++
			} else {
				manSum += edge.Delay
				manN++
			}
		}
	}
	if wanN > 0 {
		d.AvgWANDelay = wanSum / float64(wanN)
	}
	if manN > 0 {
		d.AvgMANDelay = manSum / float64(manN)
	}
	var hops, pairs int
	for _, c := range e.manNodes {
		for _, s := range e.manNodes {
			if c == s {
				continue
			}
			hops += e.Route(c, s).Hops()
			pairs++
		}
	}
	if pairs > 0 {
		d.AvgRouteHops = float64(hops) / float64(pairs)
	}
	return d
}

// WriteDot emits the topology as a Graphviz graph: WAN nodes as circles,
// MAN nodes as double circles, link labels in milliseconds.
func (e *EnRoute) WriteDot(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "graph tiers {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  node [shape=circle fontsize=8]"); err != nil {
		return err
	}
	for u := 0; u < e.G.NumNodes(); u++ {
		shape := "circle"
		if e.Kinds[u] == manNode {
			shape = "doublecircle"
		}
		if _, err := fmt.Fprintf(w, "  n%d [shape=%s]\n", u, shape); err != nil {
			return err
		}
	}
	for u := 0; u < e.G.NumNodes(); u++ {
		for _, edge := range e.G.Neighbors(model.NodeID(u)) {
			if int(edge.To) <= u {
				continue
			}
			if _, err := fmt.Fprintf(w, "  n%d -- n%d [label=\"%.0fms\" fontsize=7]\n",
				u, edge.To, edge.Delay*1000); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
