// Package core implements the analytical heart of Tang & Chanson (ICDE
// 2003): the k-optimization problem for coordinated object placement along a
// cascaded delivery path, solved exactly by an O(n²) dynamic program.
//
// Model (paper §2.1–2.2). A request for object R is served by node A_0 (an
// upstream cache or the origin server) and travels down through intermediate
// caches A_1, …, A_n to the requesting cache A_n. For each candidate cache
// A_i:
//
//   - f_i is the access frequency of R observed at A_i (requests/second);
//     because every request passing A_i also passes A_1…A_{i-1}, the profile
//     satisfies f_1 ≥ f_2 ≥ … ≥ f_n in the idealized model;
//   - m_i is the miss penalty of R at A_i: the cost of fetching R from A_0,
//     i.e. the sum of link costs between A_0 and A_i;
//   - l_i is the cost loss of evicting enough objects from A_i to make room
//     for R (greedy knapsack by normalized cost loss, see package cache).
//
// Placing R at caches A_{v_1}, …, A_{v_r} (v_1 < … < v_r) changes the total
// access cost of all objects by
//
//	Δcost = Σ_{i=1..r} ( (f_{v_i} − f_{v_{i+1}})·m_{v_i} − l_{v_i} ),
//
// with f_{v_{r+1}} = 0. Optimize selects the subset maximizing Δcost.
package core

// Node is one candidate cache on the delivery path, ordered from the node
// nearest the serving point (index 0 in a slice corresponds to A_1) down to
// the requesting cache (A_n).
type Node struct {
	// Freq is f_i, the access frequency of the requested object observed
	// at this cache (requests per unit time). Must be ≥ 0.
	Freq float64
	// MissPenalty is m_i, the cumulative link cost between the serving
	// node A_0 and this cache. Must be ≥ 0.
	MissPenalty float64
	// CostLoss is l_i, the total cost loss of the evictions required to
	// make room for the object at this cache. Must be ≥ 0. Use +Inf to
	// exclude a node (e.g. the object cannot fit at all).
	CostLoss float64
}

// Placement is the result of solving the n-optimization problem.
type Placement struct {
	// Indices are the chosen positions into the input slice (0-based, so
	// index i corresponds to the paper's A_{i+1}), in increasing order —
	// that is, from the serving node toward the client. Empty means
	// "cache nowhere".
	Indices []int
	// Gain is the maximal Δcost achieved by Indices. Always ≥ 0: the
	// empty placement achieves 0.
	Gain float64
}

// Optimizer solves n-optimization problems without allocating per call: the
// DP tables, the backtrack buffer and the monotone-clamp scratch are owned
// by the Optimizer and reused. The zero value is ready to use. An Optimizer
// is not safe for concurrent use; give each goroutine its own (the replay
// simulator embeds one per scheme instance).
type Optimizer struct {
	opt   []float64
	best  []int
	idx   []int
	clamp []Node
}

// Optimize solves the n-optimization problem for the given path exactly,
// using the OPT_k/L_k dynamic program of paper §2.2 in O(n²) time and O(n)
// space. It returns the subset of nodes at which caching the object
// maximizes the total cost reduction, together with that reduction.
//
// The returned Placement.Indices aliases the Optimizer's scratch buffer and
// is only valid until the next Optimize call; copy it to retain it.
//
// The DP is exact for arbitrary non-negative inputs; the monotone frequency
// profile assumed by the paper's system model is not required for
// optimality of the returned subset with respect to the Δcost objective
// (Theorem 1's exchange argument is purely additive).
func (o *Optimizer) Optimize(path []Node) Placement {
	n := len(path)
	if n == 0 {
		return Placement{}
	}

	// opt[k] = OPT_k, best[k] = L_k with the paper's convention that
	// L_k = -1 when the optimal solution to the k-problem is empty.
	// Inputs are 1-indexed in the paper; path[i-1] holds (f_i, m_i, l_i).
	if cap(o.opt) < n+1 {
		o.opt = make([]float64, n+1)
		o.best = make([]int, n+1)
	}
	opt := o.opt[:n+1]
	best := o.best[:n+1]
	best[0] = -1

	for k := 1; k <= n; k++ {
		opt[k] = 0
		best[k] = -1
		fk1 := 0.0 // f_{k+1} with f_{n+1} = 0
		if k < n {
			fk1 = path[k].Freq
		}
		for i := 1; i <= k; i++ {
			ni := path[i-1]
			v := opt[i-1] + (ni.Freq-fk1)*ni.MissPenalty - ni.CostLoss
			if v > opt[k] {
				opt[k] = v
				best[k] = i
			}
		}
	}

	// Backtrack: v_r = L_n, v_{i} = L_{v_{i+1}-1}.
	rev := o.idx[:0]
	for k := best[n]; k > 0; {
		rev = append(rev, k-1) // convert to 0-based position
		k = best[k-1]
	}
	o.idx = rev
	// rev holds positions from last chosen to first; reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) == 0 {
		return Placement{Gain: opt[n]}
	}
	return Placement{Indices: rev, Gain: opt[n]}
}

// ClampMonotone is the pooled variant of the package-level clampMonotone:
// the non-increasing copy is written into the Optimizer's scratch buffer,
// which the next ClampMonotone call overwrites. The input is not modified.
func (o *Optimizer) ClampMonotone(path []Node) []Node {
	if cap(o.clamp) < len(path) {
		o.clamp = make([]Node, len(path))
	}
	out := o.clamp[:len(path)]
	copy(out, path)
	clampInPlace(out)
	return out
}

// Optimize solves the n-optimization problem exactly; see
// Optimizer.Optimize. This convenience wrapper allocates fresh DP tables
// per call and returns an independently owned Placement; hot paths should
// hold an Optimizer instead.
func Optimize(path []Node) Placement {
	var o Optimizer
	return o.Optimize(path)
}

// Gain evaluates the Δcost objective for an arbitrary placement (0-based,
// strictly increasing indices into path). It is exported for verification,
// testing and what-if analysis; Optimize does not call it.
func Gain(path []Node, indices []int) float64 {
	var total float64
	for i, v := range indices {
		fNext := 0.0
		if i+1 < len(indices) {
			fNext = path[indices[i+1]].Freq
		}
		nd := path[v]
		total += (nd.Freq-fNext)*nd.MissPenalty - nd.CostLoss
	}
	return total
}

// bruteForce solves the n-optimization problem by exhaustive enumeration of
// all 2^n subsets. It exists as an oracle for tests and for explanatory
// tooling; do not call it on paths longer than ~20 nodes.
func bruteForce(path []Node) Placement {
	n := len(path)
	bestGain := 0.0
	var bestSet []int
	idx := make([]int, 0, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		idx = idx[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				idx = append(idx, i)
			}
		}
		if g := Gain(path, idx); g > bestGain {
			bestGain = g
			bestSet = append([]int(nil), idx...)
		}
	}
	return Placement{Indices: bestSet, Gain: bestGain}
}

// clampMonotone returns a copy of path whose frequency profile is
// non-increasing from index 0 (nearest the serving node) to the end, by
// raising each Freq to the maximum of all frequencies at deeper (more
// client-ward) positions. This restores the containment property
// f_1 ≥ f_2 ≥ … ≥ f_n that the system model guarantees in steady state but
// sliding-window estimation can transiently violate. The input is not
// modified.
func clampMonotone(path []Node) []Node {
	out := append([]Node(nil), path...)
	clampInPlace(out)
	return out
}

// clampInPlace raises frequencies in place to restore the non-increasing
// profile.
func clampInPlace(out []Node) {
	for i := len(out) - 2; i >= 0; i-- {
		if out[i].Freq < out[i+1].Freq {
			out[i].Freq = out[i+1].Freq
		}
	}
}

// locallyBeneficial reports whether caching at every chosen index is
// locally worthwhile, i.e. f_i·m_i ≥ l_i. By Theorem 2 of the paper this
// holds for every index returned by Optimize; the coordinated scheme uses
// the property to prune candidate sets (only nodes whose d-cache holds the
// object's descriptor are considered).
func locallyBeneficial(path []Node, indices []int) bool {
	for _, v := range indices {
		nd := path[v]
		if nd.Freq*nd.MissPenalty < nd.CostLoss {
			return false
		}
	}
	return true
}
