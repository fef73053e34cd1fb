// Package topology builds the cascaded caching architectures the paper
// evaluates: an en-route network generated in the style of the Tiers
// topology generator (a WAN backbone with attached MANs, paper §3.2 and
// Table 1) and a hierarchical full O-ary cache tree (Figure 5).
//
// Both expose the same abstraction to the simulator: a Route — the ordered
// list of caches on the distribution-tree path from a client's first cache
// up to the origin server, with the per-link delay of an average-size
// object. Per-request link costs scale these delays by object size.
package topology

import (
	"container/heap"
	"fmt"

	"cascade/internal/model"
)

// Edge is a directed half of an undirected network link.
type Edge struct {
	To    model.NodeID
	Delay float64 // seconds, for an average-size object
}

// Graph is an undirected weighted network. Node IDs are dense in [0, N).
type Graph struct {
	adj      [][]Edge
	numEdges int
}

// newGraph returns a graph with n isolated nodes.
func newGraph(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected link count.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddEdge adds an undirected link between u and v with the given delay.
func (g *Graph) AddEdge(u, v model.NodeID, delay float64) {
	if u == v {
		panic(fmt.Sprintf("topology: self-loop at node %d", u))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Delay: delay})
	g.adj[v] = append(g.adj[v], Edge{To: u, Delay: delay})
	g.numEdges++
}

// HasEdge reports whether u and v are directly linked.
func (g *Graph) HasEdge(u, v model.NodeID) bool {
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u (shared slice; do not modify).
func (g *Graph) Neighbors(u model.NodeID) []Edge { return g.adj[u] }

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	seen := make([]bool, len(g.adj))
	stack := []model.NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(g.adj)
}

// ShortestPathTree runs Dijkstra from root and returns, for every node, the
// parent on its shortest path toward root (root's parent is NoNode) and the
// total delay to root. Unreachable nodes have parent NoNode and +Inf-free
// sentinel distance of -1.
//
// Ties are broken deterministically by discovery order so that repeated
// runs over the same graph yield identical distribution trees (required for
// replayable simulations).
func (g *Graph) ShortestPathTree(root model.NodeID) (parent []model.NodeID, dist []float64) {
	return g.ShortestPathTreeExcluding(root, nil)
}

// ShortestPathTreeExcluding is ShortestPathTree with transit filtering:
// nodes for which skip returns true may terminate a path (they still get a
// parent and a distance when reachable) but are never traversed — no path
// routes *through* them. The root is always expanded, skip or not. A nil
// skip is equivalent to ShortestPathTree.
//
// The control plane uses this to rebuild routing trees around drained or
// down nodes without removing them from the graph.
func (g *Graph) ShortestPathTreeExcluding(root model.NodeID, skip func(model.NodeID) bool) (parent []model.NodeID, dist []float64) {
	n := len(g.adj)
	parent = make([]model.NodeID, n)
	dist = make([]float64, n)
	done := make([]bool, n)
	for i := range parent {
		parent[i] = model.NoNode
		dist[i] = -1
	}
	pq := &nodeHeap{{node: root, dist: 0}}
	dist[root] = 0
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u != root && skip != nil && skip(u) {
			continue // excluded nodes are endpoints, never transit
		}
		for _, e := range g.adj[u] {
			nd := it.dist + e.Delay
			if dist[e.To] < 0 || nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = u
				heap.Push(pq, nodeItem{node: e.To, dist: nd})
			}
		}
	}
	return parent, dist
}

// EdgeDelay returns the delay of link (u,v), or -1 when absent.
func (g *Graph) EdgeDelay(u, v model.NodeID) float64 {
	for _, e := range g.adj[u] {
		if e.To == v {
			return e.Delay
		}
	}
	return -1
}

type nodeItem struct {
	node model.NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int { return len(h) }

func (h nodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *nodeHeap) Push(x any) { *h = append(*h, x.(nodeItem)) }

func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
