package httpgw

import (
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// headerTraceCtx carries the span trace context hop-to-hop as
// "<32 hex trace id>-<16 hex parent span>", beside X-Cascade-Path. See
// docs/OBSERVABILITY.md for the span schema.
const headerTraceCtx = "X-Cascade-TraceCtx"

// defaultSpanCapacity is the depth of the span ring a node starts with
// (NewNode), and the one EnableSpans (node and origin) falls back to when
// given none.
const defaultSpanCapacity = 256

// EnableSpans equips the node with protocol span tracing: each request
// contributes phase spans (lookup, up, decide, down, body, coherency,
// promote) to a trace begun at the chain's edge, and completed traces that
// survive the tail-sampling policy land in the node's ring, served at
// /cascade/debug/spans beside the node's event records, which the ring
// keeps with or without a tracer. The ring is rebuilt at capacity records
// (capacity <= 0 picks defaultSpanCapacity). Call before the node serves
// requests — the request path reads both pointers without holding the node
// lock.
//
// Gateway spans are stamped with the node's Clock, so Start/End measure
// real elapsed time (unlike the simulator and cluster incarnations, whose
// spans are point-in-time markers on the protocol clock).
func (n *Node) EnableSpans(policy span.Policy, capacity int) {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	n.tracer = span.NewTracer(policy)
	n.setRing(capacity)
}

// setRing replaces the node's span ring with one of capacity records —
// none when capacity <= 0: events are dropped, audit violations still
// count — and points the protocol state and the auditor's violation sink
// at it. Call before serving: protocol steps read the ring without a
// lock.
func (n *Node) setRing(capacity int) {
	var r *span.Ring
	if capacity > 0 {
		r = span.NewRing(capacity)
	}
	n.spans = r
	n.st.SetRing(r)
	engine.RecordViolations(n.auditor, func(model.NodeID) *span.Ring { return r })
}

// SpanRing returns the node's span ring.
func (n *Node) SpanRing() *span.Ring { return n.spans }

// DumpSpans captures the node's span-ring contents.
func (n *Node) DumpSpans() span.Snapshot { return n.spans.TakeSnapshot(n.ID) }

// ringOf deposits every span this node records into its own ring — a
// gateway node only ever records spans it created, so the trace's other
// hops live in their owners' rings and a dump of the whole chain
// reassembles the tree by trace ID.
func (n *Node) ringOf(model.NodeID) *span.Ring { return n.spans }

// beginSpan opens this node's view of the request's trace: joining the
// downstream hop's context (ctx, read off the decoded path) when one
// arrived, minting a fresh trace (with its root request span) when this
// node is the chain's edge — the origin, which records only its decide
// span, never mints one. It returns a nil trace when tracing is off.
// parent is the span the node's own phase spans hang from.
func (n *Node) beginSpan(ctx span.Ctx, now float64) (tsp *span.Trace, parent span.SpanID) {
	if n.tracer == nil {
		return nil, 0
	}
	if ctx.Valid() || n.origin != nil {
		return n.tracer.Join(ctx), ctx.Parent
	}
	tsp = n.tracer.Begin(n.ID, -1, now)
	return tsp, tsp.Root()
}
