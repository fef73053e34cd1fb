package span

import (
	"cascade/internal/model"
	"sync"
)

// Ring is a node's one fixed-capacity ring buffer: completed, sampled spans
// and the node's event records share it. When full the oldest record is
// overwritten and Dropped is incremented. A nil *Ring is a valid disabled
// ring (Add and the readers are no-ops), so depositors need no guards.
type Ring struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding the last capacity spans. Capacity is
// clamped to at least 1.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Span, capacity)}
}

// Add appends one span, overwriting the oldest when full. Safe on nil.
func (r *Ring) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns the number of retained spans. Zero on nil.
func (r *Ring) Len() int {
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

// Dropped returns how many spans were overwritten since construction.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns an independently owned copy of the retained spans, oldest
// first. Nil on a nil or empty ring.
func (r *Ring) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full && r.next == 0 {
		return nil
	}
	if !r.full {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Reset discards all retained spans and the drop count.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next = 0
	r.full = false
	r.dropped = 0
}

// Snapshot is the dump encoding of one node's ring: the retained spans and
// event records plus how much history was lost to overwrites. Served by
// /cascade/debug/spans and `cascadesim -span-dump`.
type Snapshot struct {
	Node     int    `json:"node"`
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped"`
	Spans    []Span `json:"spans"`
}

// TakeSnapshot captures the ring's current contents for node. Safe on a
// nil ring (returns an empty snapshot).
func (r *Ring) TakeSnapshot(node model.NodeID) Snapshot {
	s := Snapshot{Node: int(node)}
	if r == nil {
		return s
	}
	s.Spans = r.Spans()
	r.mu.Lock()
	s.Capacity = len(r.buf)
	s.Dropped = r.dropped
	r.mu.Unlock()
	return s
}
