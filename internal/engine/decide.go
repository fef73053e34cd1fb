package engine

import (
	"cascade/internal/audit"
	"cascade/internal/core"
	"cascade/internal/model"
	"cascade/internal/span"
)

// DecideOptions selects the optional transformations applied to the
// candidate vector before the dynamic program runs.
type DecideOptions struct {
	// ClampMonotone restores f_1 ≥ … ≥ f_n on the piggybacked frequency
	// profile before optimizing (sliding-window noise can transiently
	// violate the containment property the model guarantees).
	ClampMonotone bool
	// Theorem2Prune drops candidates whose replacement is not locally
	// beneficial (f·m < l) before running the DP. Theorem 2 guarantees
	// the optimal solution never contains such nodes, so pruning cannot
	// change the decision — it only shrinks the DP input.
	Theorem2Prune bool

	// Audit optionally verifies the decision online: Theorem 2 local
	// benefit on every chosen candidate, plus sampled DP-vs-exhaustive
	// optimality spot checks. Nil disables.
	Audit *audit.Auditor
	// Checks is where the decision's audit checks are counted: the
	// request's tally, or nil to count them on Audit at once.
	Checks *audit.Tally
	// Ledger optionally books the DP's predicted Δcost term per chosen
	// candidate. Nil disables.
	Ledger *audit.Ledger
	// Predicted optionally receives those same terms — one Prediction per
	// chosen candidate, appended in the DP's order (serving side first) —
	// for a decision site that cannot reach the chosen nodes' ledgers and
	// ships the claims to them instead. Nil disables.
	Predicted *[]Prediction
	// Obj and Now give the audit and ledger hooks request context; unused
	// when both are nil (Now also timestamps the decide span).
	Obj model.ObjectID
	Now float64

	// Span optionally records a PhaseDecide span covering the DP, parented
	// on SpanParent and annotated with the DP's output (predicted Δcost,
	// caches chosen). Every incarnation routes its decide through here, so
	// the decide phase lands in the span tree uniformly. Nil disables.
	Span       *span.Trace
	SpanParent span.SpanID
}

// Prediction is the DP's claim for one chosen candidate: placing at Node
// reduces the path's access cost rate by Term = (f_i − f_{i+1})·m_i − l_i
// (§2.1), on the values the DP consumed (post clamping).
type Prediction struct {
	Node model.NodeID
	Term float64
}

// ServePoint identifies where the decision runs: the serving hop and node
// (Node is model.NoNode when the origin serves). It only feeds diagnostics
// and the decide span.
type ServePoint struct {
	Hop  int
	Node model.NodeID
}

// Decider solves the serving node's placement decision without allocating
// per call: the DP problem vector, hop map and chosen buffer are owned by
// the Decider and reused, and the embedded core.Optimizer owns the DP
// tables. The zero value is ready to use. A Decider is not safe for
// concurrent use: every Walk owns one, and a concurrent transport pools its
// walks.
type Decider struct {
	opt    core.Optimizer
	prob   []core.Node
	hops   []int
	nodes  []model.NodeID
	chosen []int
}

// Decide runs the serving node's placement decision (paper §2.2–2.3) over
// the upstream pass's hop records. cands must be in ascending hop order —
// the wire order, requesting cache first — and cover every hop strictly
// below the serving point, including tagged (excluded) hops: their Link
// costs still contribute to deeper candidates' miss penalties.
//
// It reconstructs each candidate's miss penalty by summing Link costs from
// the serving side downward, applies the configured prune/clamp, solves the
// DP, and returns the chosen hops in ascending order (toward the client
// last). The returned slice aliases the Decider's scratch buffer and is
// valid until the next Decide call.
func (d *Decider) Decide(cands []Candidate, opts DecideOptions, at ServePoint) []int {
	dsp := opts.Span.Start(span.PhaseDecide, at.Node, at.Hop, opts.SpanParent, opts.Now)
	defer opts.Span.End(dsp, opts.Now)
	d.prob = d.prob[:0]
	d.hops = d.hops[:0]
	d.nodes = d.nodes[:0]
	// Walk serving-node→client (descending hop) so the miss penalty m
	// accumulates link by link, matching the DP's input order (paper index
	// 1 … n counts away from the serving node).
	m := 0.0
	for i := len(cands) - 1; i >= 0; i-- {
		c := cands[i]
		m += c.Link
		switch c.Tag {
		case TagNoDescriptor:
			continue // §2.4 tag: excluded from candidates
		case TagCannotFit:
			continue // object cannot fit in this cache
		}
		if opts.Theorem2Prune && c.Freq*m < c.CostLoss {
			continue // Theorem 2: never part of an optimal placement
		}
		d.prob = append(d.prob, core.Node{Freq: c.Freq, MissPenalty: m, CostLoss: c.CostLoss})
		d.hops = append(d.hops, c.Hop)
		d.nodes = append(d.nodes, c.Node)
	}

	problem := d.prob
	if opts.ClampMonotone {
		problem = d.opt.ClampMonotone(problem)
	}
	pl := d.opt.Optimize(problem)
	opts.Span.Annotate(dsp, pl.Gain, 0, len(pl.Indices))

	if opts.Audit != nil || opts.Ledger != nil || opts.Predicted != nil {
		// Verify and account the decision against the values the DP
		// actually consumed (post clamping). pl.Indices ascend over the
		// DP input, which is the paper's order — index 0 nearest the
		// serving node — so the next chosen index holds f_{v_{i+1}}.
		for j, idx := range pl.Indices {
			nd := problem[idx]
			opts.Audit.CheckLocalBenefit(opts.Checks, d.nodes[idx], opts.Obj, d.hops[idx], nd.Freq, nd.MissPenalty, nd.CostLoss, opts.Now)
			fNext := 0.0
			if j+1 < len(pl.Indices) {
				fNext = problem[pl.Indices[j+1]].Freq
			}
			term := (nd.Freq-fNext)*nd.MissPenalty - nd.CostLoss
			opts.Ledger.RecordPrediction(d.nodes[idx], term)
			if opts.Predicted != nil {
				*opts.Predicted = append(*opts.Predicted, Prediction{Node: d.nodes[idx], Term: term})
			}
		}
		if opts.Audit.ShouldSpotCheck(len(problem)) {
			var pts [16]audit.PathPoint
			for i, nd := range problem {
				pts[i] = audit.PathPoint{Freq: nd.Freq, MissPenalty: nd.MissPenalty, CostLoss: nd.CostLoss}
			}
			opts.Audit.SpotCheckDP(opts.Checks, at.Node, opts.Obj, pts[:len(problem)], pl.Gain, opts.Now)
		}
	}

	// pl.Indices ascend over the DP input, which was filled with
	// descending hops — reverse into ascending hop order.
	d.chosen = d.chosen[:0]
	for i := len(pl.Indices) - 1; i >= 0; i-- {
		d.chosen = append(d.chosen, d.hops[pl.Indices[i]])
	}
	return d.chosen
}

// Decide is the allocating one-shot variant of Decider.Decide, for a caller
// that keeps no scratch of its own (the HTTP gateway decides on whichever
// handler goroutine serves the request): fresh scratch per call,
// independently owned result.
func Decide(cands []Candidate, opts DecideOptions, at ServePoint) []int {
	var d Decider
	return d.Decide(cands, opts, at)
}
