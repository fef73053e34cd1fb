// Package flightrec is a per-node event log: a fixed-capacity ring buffer of
// compact events for what happens at a node outside any one request's two
// passes — crashes and recoveries, breaker, membership and health
// transitions, audit violations, disk-tier moves and coherency events. The
// per-request protocol steps (paper §2.2–2.4) are not logged here: they are
// span attributes (internal/span), the only per-request record. The ring
// exists for post-hoc debugging — when a node crashes, an invariant audit
// fires or a copy turns stale, the node's last few hundred events are
// available as structured data.
//
// Design constraints (see docs/OBSERVABILITY.md for the event schema):
//
//   - Allocation-free recording: the ring is allocated once at construction
//     and events are fixed-size values copied in place; a disabled (nil)
//     recorder costs a nil check — Record is nil-safe.
//   - Bounded memory: when the ring is full the oldest event is overwritten
//     and Dropped is incremented; Seq numbers stay globally increasing so
//     gaps are detectable in dumps.
//   - Transport-agnostic: all three protocol incarnations share the same
//     event vocabulary, so a cluster dump and a gateway /cascade/debug/
//     flight response read identically.
//
// The package depends only on the standard library and internal/model
// (cmd/importguard enforces this).
package flightrec

import (
	"encoding/json"
	"sync"

	"cascade/internal/model"
)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindCrash: the node failed (runtime fault injection or operator
	// action).
	KindCrash Kind = iota
	// KindRecover: the node came back empty after a crash.
	KindRecover
	// KindBreaker: a circuit-breaker state transition at an HTTP gateway.
	// N = the new state (httpgw.BreakerState numeric value).
	KindBreaker
	// KindAuditViolation: an online invariant monitor fired at this node.
	// N = the violated invariant (audit.Invariant numeric value);
	// A, B carry the invariant-specific got/want values.
	KindAuditViolation
	// KindMembership: a control-plane membership transition at this node.
	// N = the new membership state (controlplane.MemberState numeric
	// value); A = the routing epoch after the transition.
	KindMembership
	// KindSpill: an NCL eviction's bytes moved to the disk tier instead
	// of dropping (data plane; A is the spilled size in bytes).
	KindSpill
	// KindPromote: a disk-tier hit re-admitted the object to the memory
	// tier (A is the avoided miss penalty, N the insertion victims).
	KindPromote
	// KindHealth: an active health-checker (or operator) transition at
	// this node. N = the new health state (controlplane.Health numeric
	// value); A = the routing epoch after the transition.
	KindHealth
	// KindInvalidate: an invalidation-log entry applied at this node
	// (coherency). A = the new generation floor, B = the log sequence
	// number, N = 1 when a cached copy was dropped by the application.
	KindInvalidate
	// KindStaleHit: the read path found a copy older than the node's
	// generation floor (coherency). A = the copy's generation, B = the
	// floor it failed; N = 1 when the copy self-healed to a miss, 0 when
	// it was knowingly served (stale-if-error degraded serving).
	KindStaleHit
	// KindRevalidate: a TTL expiry (or conditional revalidation) turned a
	// would-be hit into a refresh (coherency). A = the copy's generation.
	KindRevalidate

	numKinds
)

var kindNames = [numKinds]string{
	KindCrash:          "crash",
	KindRecover:        "recover",
	KindBreaker:        "breaker",
	KindAuditViolation: "audit_violation",
	KindMembership:     "membership",
	KindSpill:          "spill",
	KindPromote:        "promote",
	KindHealth:         "health",
	KindInvalidate:     "invalidate",
	KindStaleHit:       "stale_hit",
	KindRevalidate:     "revalidate",
}

// String returns the schema name of the kind (docs/OBSERVABILITY.md).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size flight-recorder record. The meaning of Obj, Hop,
// A, B and N depends on Kind (see the Kind constants); unused fields are
// zero. Events are small enough to copy by value on the hot path.
type Event struct {
	// Seq is the recorder-wide sequence number, increasing without gaps
	// even when the ring overwrites; a dump whose first Seq is nonzero
	// lost the earlier events.
	Seq uint64
	// Time is the protocol clock (float64 seconds from trace start for
	// the simulators, Unix seconds for the gateway).
	Time float64
	// Node is the cache the event happened at.
	Node model.NodeID
	// Kind classifies the event.
	Kind Kind
	// Obj is the object concerned (0 when not applicable).
	Obj model.ObjectID
	// Hop is the transport hop index, -1 when the transport has none.
	Hop int
	// A and B are kind-specific float payloads.
	A, B float64
	// N is a kind-specific count or enum value.
	N int
}

// eventJSON is the dump encoding: Kind as its schema name, zero payloads
// omitted.
type eventJSON struct {
	Seq  uint64  `json:"seq"`
	Time float64 `json:"t"`
	Node int     `json:"node"`
	Kind string  `json:"kind"`
	Obj  int64   `json:"obj,omitempty"`
	Hop  int     `json:"hop"`
	A    float64 `json:"a,omitempty"`
	B    float64 `json:"b,omitempty"`
	N    int     `json:"n,omitempty"`
}

// MarshalJSON encodes the event with the kind spelled as its schema name so
// dumps are self-describing.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq:  e.Seq,
		Time: e.Time,
		Node: int(e.Node),
		Kind: e.Kind.String(),
		Obj:  int64(e.Obj),
		Hop:  e.Hop,
		A:    e.A,
		B:    e.B,
		N:    e.N,
	})
}

// UnmarshalJSON decodes a dump event, resolving the kind from its schema
// name so snapshots round-trip (tools reading /cascade/debug/flight
// can reuse this type directly).
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	kind := numKinds // out of range → "unknown" on re-encode
	for k, name := range kindNames {
		if name == j.Kind {
			kind = Kind(k)
			break
		}
	}
	*e = Event{
		Seq:  j.Seq,
		Time: j.Time,
		Node: model.NodeID(j.Node),
		Kind: kind,
		Obj:  model.ObjectID(j.Obj),
		Hop:  j.Hop,
		A:    j.A,
		B:    j.B,
		N:    j.N,
	}
	return nil
}

// Recorder is a fixed-capacity ring buffer of events. A nil *Recorder is a
// valid disabled recorder: Record and the read accessors are no-ops, so
// callers wire the hook unconditionally and pay only a nil check when
// recording is off.
//
// Recording and reading are guarded by a mutex — contention only exists on
// transports that already serialize per-node work (the replay simulator is
// single-threaded per node; the runtime owns one recorder per node slot;
// the gateway serializes protocol state under its own lock), so the lock is
// effectively uncontended except against dump readers.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int // ring write position
	seq     uint64
	dropped uint64
	full    bool
}

// New returns a recorder holding the last capacity events. Capacity is
// clamped to at least 1.
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends the event, overwriting the oldest when the ring is full.
// The recorder assigns Seq; the caller fills every other field. Safe to
// call on a nil recorder.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns the number of retained events. Zero on a nil recorder.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped returns how many events were overwritten since construction.
// Zero on a nil recorder.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns an independently owned copy of the retained events, oldest
// first. Nil on a nil or empty recorder.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full && r.next == 0 {
		return nil
	}
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Snapshot is a dump-friendly view of one recorder: the retained events
// plus how much history was lost to ring overwrites.
type Snapshot struct {
	Node     int     `json:"node"`
	Capacity int     `json:"capacity"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// TakeSnapshot captures the recorder's current contents for node. Safe on a
// nil recorder (returns an empty snapshot).
func (r *Recorder) TakeSnapshot(node model.NodeID) Snapshot {
	s := Snapshot{Node: int(node)}
	if r == nil {
		return s
	}
	s.Events = r.Events()
	r.mu.Lock()
	s.Capacity = len(r.buf)
	s.Dropped = r.dropped
	r.mu.Unlock()
	return s
}
