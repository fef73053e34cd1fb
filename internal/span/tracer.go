package span

import (
	"sync"
	"sync/atomic"

	"cascade/internal/model"
)

// Policy declares the tail-sampling policy of a Tracer.
type Policy struct {
	// Rate is the fraction of non-forced traces kept (deterministic on
	// the trace ID; see sampled). 1 keeps everything, 0 keeps only
	// forced traces.
	Rate float64
	// Slow is the forced-keep latency threshold in seconds: a trace
	// whose observed duration exceeds it is kept regardless of Rate.
	// Zero disables the slow check.
	Slow float64
}

// Tracer mints trace and span IDs and applies the tail-sampling policy.
// One tracer serves a whole incarnation (a simulator run, a cluster, one
// gateway process). A nil *Tracer is a valid disabled tracer: Begin and
// Join return nil traces whose methods are no-ops, so the hot paths wire
// tracing unconditionally and pay one branch when it is off.
type Tracer struct {
	policy Policy
	seed   uint64
	ctr    atomic.Uint64
	pool   sync.Pool
}

// NewTracer returns a tracer seeded from the platform random source.
func NewTracer(p Policy) *Tracer {
	t := &Tracer{policy: p, seed: randSeed()}
	t.pool.New = func() any { return &Trace{spans: make([]Span, 0, 16)} }
	return t
}

// Policy returns the tracer's sampling policy (zero value on nil).
func (tr *Tracer) Policy() Policy {
	if tr == nil {
		return Policy{}
	}
	return tr.policy
}

// idBlock is the input block one trace reserves on the shared counter:
// the trace mints every ID it needs (the trace ID's halves plus every
// span) from seed+base+seq with seq < idBlock, and splitmix64 is a
// bijection, so IDs from disjoint blocks never collide. One contended
// atomic per request instead of one per span — under parallel load the
// shared counter's cache line is the tracer's only cross-core traffic.
const idBlock = 1 << 20

// nextID mints a process-unique 64-bit ID: the trace's block-local
// sequence walked through the splitmix64 finalizer, offset by the
// process seed. (A trace that somehow outgrows its block walks into the
// next block's inputs; rings cap retained spans far below that.)
func (t *Trace) nextID() uint64 {
	for {
		t.seq++
		id := splitmix64(t.tr.seed + t.base + t.seq)
		if id != 0 { // zero is reserved for "no span"
			return id
		}
	}
}

// Begin starts a new trace at the edge of a request: a fresh 128-bit trace
// ID plus an open root span of PhaseRequest at the given node and hop.
// Returns nil on a nil tracer.
func (tr *Tracer) Begin(node model.NodeID, hop int, now float64) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.get()
	t.id = TraceID{Hi: t.nextID(), Lo: t.nextID()}
	t.root = t.Start(PhaseRequest, node, hop, 0, now)
	return t
}

// Join starts a local accumulator for a trace minted elsewhere (a gateway
// hop receiving a propagated Ctx). No root span is opened; the caller
// parents its spans on ctx.Parent. Returns nil on a nil tracer or an
// invalid ctx.
func (tr *Tracer) Join(ctx Ctx) *Trace {
	if tr == nil || !ctx.Valid() {
		return nil
	}
	t := tr.get()
	t.id = ctx.Trace
	return t
}

func (tr *Tracer) get() *Trace {
	t := tr.pool.Get().(*Trace)
	t.tr = tr
	t.root = 0
	t.flags = 0
	t.spans = t.spans[:0]
	t.base = tr.ctr.Add(idBlock)
	t.seq = 0
	return t
}

// Collect completes the trace: closes the root span (if any), applies the
// slow threshold, makes the tail-sampling keep/drop verdict, and — when
// kept — deposits every span into the ring returned by rings for its node
// (a nil ring discards that node's spans). The trace is recycled; the
// caller must not use it afterwards. Safe on a nil trace.
func (tr *Tracer) Collect(t *Trace, now float64, rings func(model.NodeID) *Ring) {
	if tr == nil || t == nil {
		return
	}
	if t.root != 0 {
		t.End(t.root, now)
	}
	if tr.policy.Slow > 0 && len(t.spans) > 0 {
		start := t.spans[0].Start
		for _, s := range t.spans[1:] {
			if s.Start < start {
				start = s.Start
			}
		}
		if now-start > tr.policy.Slow {
			t.flags |= flagSlow
		}
	}
	if t.flags != 0 || sampled(t.id, tr.policy.Rate) {
		for i := range t.spans {
			s := t.spans[i]
			s.Flags = t.flags
			if r := rings(s.Node); r != nil {
				r.Add(s)
			}
		}
	}
	t.tr = nil
	tr.pool.Put(t)
}

// Trace is the per-request span accumulator. All methods are nil-safe
// no-ops returning zero values, so instrumented paths need no guards.
// A Trace is owned by one request goroutine; it is not concurrency-safe.
type Trace struct {
	tr    *Tracer
	id    TraceID
	root  SpanID
	flags uint8
	base  uint64 // this trace's reserved block on the tracer's counter
	seq   uint64 // block-local ID sequence
	spans []Span
}

// ID returns the trace ID (zero on nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Root returns the root span's ID (zero on nil or a joined trace).
func (t *Trace) Root() SpanID {
	if t == nil {
		return 0
	}
	return t.root
}

// Ctx builds the context to propagate downstream with the given span as
// the next hop's parent. Zero on nil.
func (t *Trace) Ctx(parent SpanID) Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{Trace: t.id, Parent: parent}
}

// Start opens a span of the given phase at node/hop under parent and
// returns its ID (zero on nil). The span stays open until End.
func (t *Trace) Start(ph Phase, node model.NodeID, hop int, parent SpanID, now float64) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(t.nextID())
	t.spans = append(t.spans, Span{
		Trace:  t.id,
		ID:     id,
		Parent: parent,
		Phase:  ph,
		Node:   node,
		Hop:    hop,
		Start:  now,
		End:    now - 1, // open marker: End < Start until closed
	})
	return id
}

// End closes the span with the given ID. Unknown or zero IDs are ignored.
// The scan runs from the tail because spans close in near-LIFO order.
func (t *Trace) End(id SpanID, now float64) {
	if t == nil || id == 0 {
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = now
			return
		}
	}
}

// Annotate sets a span's protocol payload (see Span.A). Unknown or zero IDs
// are ignored; the tail scan is End's.
func (t *Trace) Annotate(id SpanID, a, b float64, n int) {
	if t == nil || id == 0 {
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].A, t.spans[i].B, t.spans[i].N = a, b, n
			return
		}
	}
}

// Force marks the trace for forced retention (FlagError, FlagStale,
// flagSlow). The tail sampler keeps forced traces regardless of rate.
func (t *Trace) Force(flag uint8) {
	if t == nil {
		return
	}
	t.flags |= flag
}

// Forced reports whether any retention flag is set (false on nil).
func (t *Trace) Forced() bool { return t != nil && t.flags != 0 }
