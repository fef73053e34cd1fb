package runtime

import (
	"context"
	"errors"
	"time"

	"cascade/internal/engine"
	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/topology"
)

// The data plane: one walk per request.
//
// A request is the paper's two passes over one path (§2.3), run by
// engine.Walk as plain function calls on the Get goroutine. Per-node state
// is guarded by engine.Sharded's shard locks, so concurrent walks need no
// further serialization. The cluster answers the walk's one question per
// hop: each delivery counts toward Stats.Messages, consults the fault
// injector, and is routed around — its link folded into the cost or the
// miss penalty — when the node turns out to be unreachable.
//
// A hop touches its own node's memory and the walk's, nothing else: what the
// request adds to the cluster-wide counters accumulates in the walk and is
// published once when the Get returns (Cluster.publish). A counter word that
// every hop of every request writes is a cache line every core fights over.

// walk is one request's engine walk plus the cluster's side of it, recycled
// through Cluster.walks with its buffers. It is the walk's engine.Router.
type walk struct {
	engine.Walk

	c   *Cluster
	ctx context.Context
	err error // why the walk stopped, when it did

	costBuf []float64
	placed  []model.NodeID // Result.Placed; a fresh slice per request

	// count is this request's share of the cluster-wide counters,
	// published and cleared by Cluster.publish.
	count walkCounts
}

// walkCounts is what one request adds to the cluster-wide counters.
type walkCounts struct {
	messages     int64 // live hop deliveries, either pass
	hit          bool  // a cache served it
	inserts      int64 // copies written on the way down
	routedAround int64 // hops skipped as down or saturated
}

// errLost reports a walk abandoned because the fault injector dropped one
// of its messages; Get turns it into the origin-direct Degraded result.
var errLost = errors.New("runtime: protocol message lost")

// Deliver is one protocol message delivery to a hop, in either pass. A live
// node takes its step (through its body store when it has a disk tier) and
// the delivery counts toward Stats.Messages. A node that is unreachable —
// down, crashed by injection, or saturated — is routed around and counted.
// The walk stops where it stands on an injected drop (errLost) or when the
// context ends during an injected delay (ctx.Err()). The injector only ever
// sees deliveries to live nodes, so a seeded fault schedule is a function
// of the traffic alone.
func (w *walk) Deliver(hop int) (engine.Hop, engine.Verdict) {
	c, id := w.c, w.Route[hop]
	n := c.node(id)
	if n != nil && !n.down.Load() {
		if inj := c.cfg.Fault; inj != nil {
			switch d := inj.Next(int64(id)); d.Action {
			case fault.ActDrop:
				c.faultDrops.Add(1)
				w.err = errLost
				return engine.Hop{}, engine.Stop
			case fault.ActCrash:
				c.Fail(id)
				n = nil
			case fault.ActSaturate:
				n = nil
			case fault.ActDelay:
				t := time.NewTimer(d.Delay)
				select {
				case <-t.C:
				case <-w.ctx.Done():
					t.Stop()
					w.err = w.ctx.Err()
					return engine.Hop{}, engine.Stop
				}
				// The node may have crashed or been replaced while the
				// message was held: re-resolve the slot.
				n = c.node(id)
			}
		}
	}
	if n == nil || n.down.Load() {
		w.count.routedAround++
		c.nodeInst[id].routedAround.Inc()
		return engine.Hop{}, engine.RouteAround
	}
	w.count.messages++
	return engine.Hop{St: n.st, Tier: n.bodies}, engine.Live
}

// Placed counts a copy the response wrote.
func (w *walk) Placed(hop, evicted int) {
	id := w.Route[hop]
	w.placed = append(w.placed, id)
	w.count.inserts++
	inst := &w.c.nodeInst[id]
	inst.inserts.Inc()
	inst.evictions.Add(int64(evicted))
}

// runWalk executes one request. route is already compacted to routable
// nodes; lead is the scaled cost of the links below the first live hop. A
// non-nil error means the walk was abandoned mid-pass: steps already applied
// at earlier hops stay, and copies written are counted.
func (c *Cluster) runWalk(ctx context.Context, w *walk, route topology.Route, lead float64, obj model.ObjectID, size int64, scale float64) (Result, error) {
	w.costBuf = w.costBuf[:0]
	for _, v := range route.UpCost {
		w.costBuf = append(w.costBuf, v*scale)
	}
	w.c, w.ctx, w.err, w.placed = c, ctx, nil, nil
	w.Obj, w.Size, w.Now = obj, size, c.cfg.Clock()
	w.Route, w.Links, w.Cost = route.Caches, w.costBuf, lead
	w.Auth, w.Mode = c.auth, c.cfg.CoherencyMode
	w.Decide = engine.DecideOptions{ClampMonotone: true, Audit: c.auditor, Ledger: c.ledger}
	w.Trace = c.spanTracer.Begin(route.Caches[0], -1, w.Now)

	var r Result
	if w.Run(w) {
		r = Result{ServedBy: w.ServedBy, Cost: w.Cost, Hops: w.Serve, Placed: w.placed, ServedGen: w.Gen}
		if w.ServedBy == model.NoNode {
			// The origin served, past the topmost link.
			r.Hops = len(w.Route) - 1
			if w.Links[len(w.Route)-1] > 0 {
				r.Hops++ // hierarchy: root–server is a real link
			}
		}
		w.count.hit = w.ServedBy != model.NoNode
	} else {
		// An abandoned walk is always worth keeping in the span rings.
		w.Trace.Force(span.FlagError)
	}
	// The data plane's counters: a stopped walk keeps the steps it took.
	if w.FromTier {
		c.spillHits.Add(1)
	}
	if w.Promoted {
		c.promotions.Add(1)
		inst := &c.nodeInst[w.ServedBy]
		inst.inserts.Inc()
		inst.evictions.Add(int64(w.PromoteEvicted))
	}
	if w.Spills > 0 {
		c.spills.Add(int64(w.Spills))
	}
	c.spanTracer.Collect(w.Trace, w.Now, c.spanRingFor)
	err := w.err

	// Drop references into the topology and the caller so pooled scratch
	// pins neither.
	w.Route, w.Links, w.Trace, w.ctx, w.err, w.placed = nil, nil, nil, nil, nil, nil
	return r, err
}
