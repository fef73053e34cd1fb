// Package span implements cascade-wide request tracing for the coordinated
// protocol: 128-bit trace IDs minted once at the edge of a request (the HTTP
// gateway that first sees it, Cluster.Get, or the simulator's request loop)
// and propagated hop to hop, with one span per protocol phase at each node
// the request touches. A span tree stitched across the cascade answers
// "where did the p999 go" — and, through each span's numeric attributes,
// "why that placement" — for a single request the way the per-process
// surfaces (metrics) cannot. It is the only per-request trace: all three
// incarnations fill it, from the engine's own return values.
//
// The span vocabulary mirrors the protocol phases the engine already
// executes (paper §2.2–2.4): lookup, upstream candidate collection, the DP
// decide at the serving node, downstream placement, body streaming, disk
// spill/promote and coherency validation. All three protocol incarnations
// emit the same phases with the same parent links, so a simulator dump, a
// cluster dump and a set of gateway /cascade/debug/spans responses stitch
// into identical protocol-phase trees for identical requests (the
// conformance suite asserts exactly this).
//
// The same per-node ring keeps the node's events — crashes, recoveries,
// membership and health transitions, audit violations, disk-tier
// moves and coherency events — as zero-length records (see Event), written
// as they happen rather than through the sampler. An event caused by a
// request carries that request's trace ID, so it sits in the request's
// tree; one no request caused carries the zero trace ID.
//
// Design constraints:
//
//   - Allocation-free when disabled: a nil *Tracer yields nil *Trace values
//     whose methods are all nil-safe no-ops, so the hot paths wire the
//     hooks unconditionally and pay one predictable branch.
//   - Bounded memory: completed, sampled spans and event records land in
//     fixed-capacity per-node rings that overwrite oldest and count drops.
//   - Tail sampling: the keep/drop choice happens at request completion, so
//     error, stale and slow traces are always kept while the rest are
//     sampled by a deterministic hash of the trace ID — every node of the
//     cascade independently reaches the same verdict for the same trace
//     without coordination.
//
// The package depends only on the standard library and internal/model
// (cmd/lint enforces this).
package span

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strconv"

	"cascade/internal/model"
)

// TraceID identifies one request's journey across the whole cascade.
// 128 bits so independently minting edges never collide in practice.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	hex16(b[:16], id.Hi)
	hex16(b[16:], id.Lo)
	return string(b[:])
}

// SpanID identifies one span within the process-local ID space of the
// tracer that minted it. Zero means "no span" (the root's parent).
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex16(b[:], uint64(id))
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

func hex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

func parseHex64(s string) (uint64, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Phase classifies a span by the protocol phase it covers.
type Phase uint8

const (
	// PhaseRequest is the root span: the whole request as seen by the
	// edge that minted the trace ID.
	PhaseRequest Phase = iota
	// PhaseLookup covers the upstream pass probing one node's cache
	// (including the coherency freshness check folded into the lookup).
	PhaseLookup
	// PhaseUp covers one node's candidate collection on a miss: the
	// piggyback record (§2.4) plus the forward to the next hop. Child
	// spans of the next hop hang off this span, so the up spans nest the
	// chain walk.
	PhaseUp
	// PhaseDecide covers the §2.2 dynamic program at the serving point.
	PhaseDecide
	// PhaseDown covers one node's downstream step: the placement-or-pass
	// decision application and miss-penalty bookkeeping (§2.3).
	PhaseDown
	// PhaseBody covers moving object bytes at a node (streaming a
	// response body, buffering a placement copy).
	PhaseBody
	// PhaseSpill is an event record: an NCL eviction's bytes moved to the
	// disk tier (A = the spilled size in bytes).
	PhaseSpill
	// PhasePromote covers re-admitting a disk-tier hit to memory; its
	// event record carries A = the avoided miss penalty, N = the insertion
	// victims.
	PhasePromote
	// PhaseCoherency covers applying piggybacked invalidations or a
	// revalidation round trip.
	PhaseCoherency

	// The event phases below, like spill and promote, are written as
	// zero-length records (see Event); docs/OBSERVABILITY.md tabulates
	// their payloads.

	// PhaseCrash: the node failed.
	PhaseCrash
	// PhaseRecover: the node came back empty after a crash.
	PhaseRecover
	// PhaseAuditViolation: an invariant monitor fired; N = the invariant,
	// A and B = its got and want values.
	PhaseAuditViolation
	// PhaseMembership: a membership transition; N = the new state, A =
	// the routing epoch after it.
	PhaseMembership
	// PhaseHealth: a health transition; N = the new state, A = the
	// routing epoch after it (B = 1 for a gateway's upstream slot).
	PhaseHealth
	// PhaseInvalidate: an invalidation-log entry applied; A = the new
	// floor, B = the log sequence, N = 1 when a copy was dropped.
	PhaseInvalidate
	// PhaseStaleHit: a copy below the read floor; A = its generation, B =
	// the floor, N = 1 when it self-healed to a miss, 0 when served
	// degraded.
	PhaseStaleHit
	// PhaseRevalidate: a copy's lifetime or age turned a hit into a
	// refresh; A = its generation, N = 1 when confirmed by a 304.
	PhaseRevalidate

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseRequest:   "request",
	PhaseLookup:    "lookup",
	PhaseUp:        "up",
	PhaseDecide:    "decide",
	PhaseDown:      "down",
	PhaseBody:      "body",
	PhaseSpill:     "spill",
	PhasePromote:   "promote",
	PhaseCoherency: "coherency",

	PhaseCrash:          "crash",
	PhaseRecover:        "recover",
	PhaseAuditViolation: "audit_violation",
	PhaseMembership:     "membership",
	PhaseHealth:         "health",
	PhaseInvalidate:     "invalidate",
	PhaseStaleHit:       "stale_hit",
	PhaseRevalidate:     "revalidate",
}

// String returns the schema name of the phase (docs/OBSERVABILITY.md).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Flags mark a completed trace for forced retention by the tail sampler.
const (
	// FlagError: the request failed (upstream error, protocol violation).
	FlagError uint8 = 1 << iota
	// FlagStale: a copy below the coherency floor was observed.
	FlagStale
	// flagSlow: the request exceeded the tracer's slow threshold.
	flagSlow
)

// Span is one fixed-size record covering one protocol phase at one node.
// Spans are values copied in place on the hot path, never boxed.
type Span struct {
	// Trace ties the span to its request's cascade-wide trace.
	Trace TraceID
	// ID is the span's own identifier; Parent links it into the tree
	// (zero parent = tree root).
	ID, Parent SpanID
	// Phase classifies the protocol phase covered.
	Phase Phase
	// Flags carries the trace-level retention flags observed by the time
	// the span's trace completed.
	Flags uint8
	// Node is the cache the phase executed at.
	Node model.NodeID
	// Obj is the object an event record concerns (zero on request spans
	// and on events about no object).
	Obj model.ObjectID
	// Hop is the transport hop index, -1 when the transport has none
	// (the root span, origin-side spans).
	Hop int
	// Start and End bound the phase on the protocol clock (float64
	// seconds; logical for the simulators, Unix for the gateway). An
	// End before Start means the span was never finished.
	Start, End float64
	// A, B and N are the phase's protocol payload (fixed numeric slots, no
	// maps, so a span stays a flat value). Every incarnation fills them
	// from what the engine returned at that step:
	//
	//	up:     A = f (frequency estimate), B = l (eviction cost loss),
	//	        N = the hop's §2.4 tag (engine.Tag: 0 candidate,
	//	        1 no descriptor, 2 cannot fit)
	//	decide: A = the DP's predicted Δcost, N = caches chosen
	//	down:   A = miss-penalty counter observed (link just crossed
	//	        included), B = victims evicted, N = DownPass / DownPlaced
	//	        (the counter reset here) / downPlaceFailed
	//
	// The event phases carry theirs (see the Phase constants); every other
	// phase carries zero.
	A, B float64
	N    int
}

// Event returns an event record of phase ph at node: a zero-length span
// (Start == End == now) with no span ID and no hop (-1). The caller adds
// the trace of the request that caused it, if any, and the payload.
func Event(ph Phase, node model.NodeID, now float64) Span {
	return Span{Phase: ph, Node: node, Hop: -1, Start: now, End: now}
}

// Down-span outcomes (Span.N).
const (
	DownPass = iota
	DownPlaced
	downPlaceFailed
)

// DownOutcome maps a downstream step's result onto the down span's N.
func DownOutcome(placed, placeFailed bool) int {
	switch {
	case placed:
		return DownPlaced
	case placeFailed:
		return downPlaceFailed
	}
	return DownPass
}

// spanJSON is the dump encoding: IDs in hex, phase by schema name.
type spanJSON struct {
	Trace  string  `json:"trace"`
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Phase  string  `json:"phase"`
	Flags  uint8   `json:"flags,omitempty"`
	Node   int     `json:"node"`
	Obj    int64   `json:"obj,omitempty"`
	Hop    int     `json:"hop"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	A      float64 `json:"a,omitempty"`
	B      float64 `json:"b,omitempty"`
	N      int     `json:"n,omitempty"`
}

// MarshalJSON encodes the span with hex IDs and the phase spelled as its
// schema name so dumps are self-describing.
func (s Span) MarshalJSON() ([]byte, error) {
	j := spanJSON{
		Trace: s.Trace.String(),
		ID:    s.ID.String(),
		Phase: s.Phase.String(),
		Flags: s.Flags,
		Node:  int(s.Node),
		Obj:   int64(s.Obj),
		Hop:   s.Hop,
		Start: s.Start,
		End:   s.End,
		A:     s.A,
		B:     s.B,
		N:     s.N,
	}
	if s.Parent != 0 {
		j.Parent = s.Parent.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a dump span, so tools reading /cascade/debug/spans
// or `cascadesim -span-dump` output can reuse this type directly.
func (s *Span) UnmarshalJSON(data []byte) error {
	var j spanJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Trace) != 32 {
		return errors.New("span: bad trace id length")
	}
	hi, ok1 := parseHex64(j.Trace[:16])
	lo, ok2 := parseHex64(j.Trace[16:])
	id, ok3 := parseHex64(j.ID)
	if !ok1 || !ok2 || !ok3 {
		return errors.New("span: bad hex id")
	}
	var parent uint64
	if j.Parent != "" {
		var ok bool
		parent, ok = parseHex64(j.Parent)
		if !ok {
			return errors.New("span: bad parent id")
		}
	}
	phase := numPhases // out of range → "unknown" on re-encode
	for p, name := range phaseNames {
		if name == j.Phase {
			phase = Phase(p)
			break
		}
	}
	*s = Span{
		Trace:  TraceID{Hi: hi, Lo: lo},
		ID:     SpanID(id),
		Parent: SpanID(parent),
		Phase:  phase,
		Flags:  j.Flags,
		Node:   model.NodeID(j.Node),
		Obj:    model.ObjectID(j.Obj),
		Hop:    j.Hop,
		Start:  j.Start,
		End:    j.End,
		A:      j.A,
		B:      j.B,
		N:      j.N,
	}
	return nil
}

// Ctx is the propagated trace context: which trace the downstream hop
// belongs to and which span is its parent. Carried hop to hop on the
// X-Cascade-TraceCtx header.
type Ctx struct {
	Trace  TraceID
	Parent SpanID
}

// Valid reports whether the context carries a real trace.
func (c Ctx) Valid() bool { return !c.Trace.IsZero() }

// String encodes the context as "<32 hex trace>-<16 hex parent>".
func (c Ctx) String() string {
	var b [49]byte
	hex16(b[:16], c.Trace.Hi)
	hex16(b[16:32], c.Trace.Lo)
	b[32] = '-'
	hex16(b[33:], uint64(c.Parent))
	return string(b[:])
}

// ParseCtx decodes a String-encoded context. Returns ok=false on any
// malformed input (the caller treats the request as untraced).
func ParseCtx(s string) (Ctx, bool) {
	if len(s) != 49 || s[32] != '-' {
		return Ctx{}, false
	}
	hi, ok1 := parseHex64(s[:16])
	lo, ok2 := parseHex64(s[16:32])
	parent, ok3 := parseHex64(s[33:])
	if !ok1 || !ok2 || !ok3 {
		return Ctx{}, false
	}
	c := Ctx{Trace: TraceID{Hi: hi, Lo: lo}, Parent: SpanID(parent)}
	if !c.Valid() {
		return Ctx{}, false
	}
	return c, true
}

// splitmix64 is the finalizer from the SplitMix64 generator: a cheap,
// well-distributed 64-bit mixer used both for ID minting and for the
// deterministic sampling hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampled is the cascade-wide tail-sampling verdict for a non-forced
// trace: a deterministic hash of the trace ID mapped to [0,1) and compared
// to the sampling rate. Every node computes the same answer for the same
// trace, so a distributed gateway chain keeps or drops a trace coherently
// without coordination.
func sampled(id TraceID, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := splitmix64(id.Hi ^ splitmix64(id.Lo))
	return float64(h>>11)/(1<<53) < rate
}

// randSeed draws 8 bytes of process entropy, falling back to a fixed odd
// constant if the platform random source fails (IDs stay unique within the
// process via the counter; only cross-process uniqueness degrades).
func randSeed() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}
