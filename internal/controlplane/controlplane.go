// Package controlplane manages the membership and health of a cascade's
// cache nodes at runtime. The paper's coordinated placement (§2.2–2.4)
// assumes a fixed set of caches; this package makes the set a living object
// without touching the protocol: a membership Manager admits, drains and
// removes nodes, an active Checker transitions nodes healthy → suspect →
// down on probe evidence, and an EpochGuard lets in-flight requests finish on the
// routing view they started with while new requests pick up the changed
// membership.
//
// The package is transport-agnostic: the cluster (internal/runtime) and
// the HTTP gateway (internal/httpgw) both run a Manager — the cluster one
// slot per cache, each gateway node two, itself (slot 0) and its upstream
// (slot 1) — and both judge health with the same threshold machine
// (Streak), which a gateway feeds its upstream exchanges too, so a
// drained node behaves identically whichever transport hosts it: it stops
// offering placement candidacy, spills its descriptors to its parent, and
// departs, and only a removed node is admitted again. cmd/lint pins
// the dependency surface to the standard library plus internal/model,
// internal/metrics and internal/topology.
package controlplane

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"cascade/internal/metrics"
	"cascade/internal/model"
)

// MemberState is a node's membership position in the cascade.
type MemberState uint8

const (
	// Active: the node participates fully — it is routable (subject to
	// health) and offers placement candidacy.
	Active MemberState = iota
	// draining: the node is leaving cooperatively. It finishes requests
	// already routed through it but offers no candidacy and takes no new
	// copies; new requests route around it.
	draining
	// Removed: the node has departed. It holds no state and is not
	// routable; Admit returns it to Active.
	Removed
)

func (s MemberState) String() string {
	switch s {
	case draining:
		return "draining"
	case Removed:
		return "removed"
	default:
		return "active"
	}
}

// Health is a node's probe-driven health classification.
type Health uint8

const (
	// Healthy: probes succeed; the node is routable.
	Healthy Health = iota
	// Suspect: at least one probe failed but the failure threshold has
	// not been crossed. Still routable — the passive failure machinery
	// (route-around, deadline) covers the window.
	Suspect
	// Down: consecutive probe failures crossed the threshold. Not
	// routable until probes succeed again.
	Down
)

func (h Health) String() string {
	switch h {
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return "healthy"
	}
}

// EventKind classifies a membership or health transition.
type EventKind uint8

// Membership and health transition kinds, in the order they are counted by
// the cascade_membership_changes_total metric's event label.
const (
	EventAdmit EventKind = iota
	EventDrain
	EventRemove
	EventHealthChange
	numEvents
)

var eventNames = [numEvents]string{"admit", "drain", "remove", "health"}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one membership or health transition, delivered to the Manager's
// OnEvent hook (for span-ring event records and logs).
type Event struct {
	Kind   EventKind
	Node   model.NodeID
	Member MemberState // state after the transition
	Health Health      // health after the transition
	Epoch  uint64      // routing epoch after the transition
}

// Manager tracks the membership and health of a fixed ID space of nodes
// [0, n) and derives the routing predicate from both: a node is routable
// when it is Active and not Down. Every transition bumps the routing epoch,
// so transports can fence in-flight work with an EpochGuard.
//
// All methods are safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	epoch   uint64
	onEvent func(Event)

	// member (a MemberState per node), health (a Health per node) and
	// routable (member Active and health not Down) are written inside every
	// transition while m.mu is held and read without it, so StateOf,
	// HealthOf and the per-hop routing predicate are one atomic load each.
	member   []atomic.Uint32
	health   []atomic.Uint32
	routable []atomic.Bool

	// changes counts the transitions applied, by kind
	// (cascade_membership_changes_total).
	changes [numEvents]atomic.Uint64
}

// NewManager returns a manager over node IDs [0, n), all Active and
// Healthy.
func NewManager(n int) *Manager {
	m := &Manager{
		member:   make([]atomic.Uint32, n),
		health:   make([]atomic.Uint32, n),
		routable: make([]atomic.Bool, n),
	}
	for i := range m.routable {
		m.routable[i].Store(true)
	}
	return m
}

// SetOnEvent installs the transition hook (nil disables). Call before the
// manager is shared; the hook runs outside the manager's lock.
func (m *Manager) SetOnEvent(fn func(Event)) { m.onEvent = fn }

// RegisterMetrics exports the manager's state through reg:
// cascade_node_health{node} (0=healthy, 1=suspect, 2=down) and
// cascade_membership_changes_total{event}.
func (m *Manager) RegisterMetrics(reg *metrics.Registry) {
	for k := EventKind(0); k < numEvents; k++ {
		reg.CounterFunc("cascade_membership_changes_total",
			"Membership and health transitions applied by the control plane.",
			func() float64 { return float64(m.Changes(k)) }, metrics.L("event", k.String()))
	}
	for i := range m.member {
		id := model.NodeID(i)
		reg.GaugeFunc("cascade_node_health",
			"Probe-driven node health (0=healthy, 1=suspect, 2=down).",
			func() float64 { return float64(m.HealthOf(id)) },
			metrics.L("node", strconv.Itoa(i)))
	}
}

// Len returns the size of the managed ID space.
func (m *Manager) Len() int { return len(m.member) }

// Changes returns how many transitions of kind k the manager has applied.
func (m *Manager) Changes(k EventKind) uint64 { return m.changes[k].Load() }

// Epoch returns the current routing epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// StateOf returns a node's membership state (Removed for unknown IDs). The
// read is one atomic load, so a transport can check membership per step.
func (m *Manager) StateOf(id model.NodeID) MemberState {
	if int(id) < 0 || int(id) >= len(m.member) {
		return Removed
	}
	return MemberState(m.member[id].Load())
}

// HealthOf returns a node's health (Down for unknown IDs), one atomic
// load.
func (m *Manager) HealthOf(id model.NodeID) Health {
	if int(id) < 0 || int(id) >= len(m.health) {
		return Down
	}
	return Health(m.health[id].Load())
}

// Routable reports whether new requests may be routed through the node:
// Active membership and not probed Down. Suspect stays routable — the
// passive failure machinery covers the window until the checker decides.
// The check is one atomic load — it runs per hop on every request.
func (m *Manager) Routable(id model.NodeID) bool {
	if int(id) < 0 || int(id) >= len(m.routable) {
		return false
	}
	return m.routable[id].Load()
}

// emitLocked counts and snapshots a transition; the caller must hold m.mu
// and fire the returned event (if any) after unlocking.
func (m *Manager) emitLocked(k EventKind, id model.NodeID) (Event, bool) {
	member := MemberState(m.member[id].Load())
	health := Health(m.health[id].Load())
	m.routable[id].Store(member == Active && health != Down)
	m.epoch++
	m.changes[k].Add(1)
	if m.onEvent == nil {
		return Event{}, false
	}
	return Event{Kind: k, Node: id, Member: member, Health: health, Epoch: m.epoch}, true
}

// move applies a membership transition: node id, when in state from,
// moves to state to (an admitted node starts Healthy), and the transition
// k is emitted. Reports whether a transition happened (false when id is
// unknown or not in from).
func (m *Manager) move(id model.NodeID, from, to MemberState, k EventKind) bool {
	m.mu.Lock()
	if int(id) < 0 || int(id) >= len(m.member) || MemberState(m.member[id].Load()) != from {
		m.mu.Unlock()
		return false
	}
	m.member[id].Store(uint32(to))
	if to == Active {
		m.health[id].Store(uint32(Healthy))
	}
	ev, fire := m.emitLocked(k, id)
	m.mu.Unlock()
	if fire {
		m.onEvent(ev)
	}
	return true
}

// Admit returns a departed node to service: Removed → Active, Healthy. A
// draining node is not admitted — its drain is still running and will
// remove it — nor is an Active or unknown one. Reports whether a
// transition happened.
func (m *Manager) Admit(id model.NodeID) bool { return m.move(id, Removed, Active, EventAdmit) }

// StartDrain moves an Active node to draining: it leaves the routing view
// (the epoch bumps) but keeps serving requests already routed through it.
// Reports whether a transition happened.
func (m *Manager) StartDrain(id model.NodeID) bool { return m.move(id, Active, draining, EventDrain) }

// FinishDrain completes a drain: draining → Removed. Reports whether a
// transition happened.
func (m *Manager) FinishDrain(id model.NodeID) bool {
	return m.move(id, draining, Removed, EventRemove)
}

// SetHealth records a node's health classification (typically from a
// HealthChecker, or an operator override). Reports whether the value
// changed; only changes bump the epoch, and only a change takes the
// manager's lock.
func (m *Manager) SetHealth(id model.NodeID, h Health) bool {
	if m.HealthOf(id) == h {
		return false
	}
	m.mu.Lock()
	if int(id) < 0 || int(id) >= len(m.health) || Health(m.health[id].Load()) == h {
		m.mu.Unlock()
		return false
	}
	m.health[id].Store(uint32(h))
	ev, fire := m.emitLocked(EventHealthChange, id)
	m.mu.Unlock()
	if fire {
		m.onEvent(ev)
	}
	return true
}

// Members lists the node IDs currently in the given membership state,
// sorted ascending. The slice is non-nil even when empty, so callers can
// range and serialize it without nil checks.
func (m *Manager) Members(s MemberState) []model.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]model.NodeID, 0)
	for i := range m.member {
		if MemberState(m.member[i].Load()) == s {
			out = append(out, model.NodeID(i))
		}
	}
	return out
}

// ParseHealth resolves a health name ("healthy", "suspect", "down") — the
// admin endpoints' wire form.
func ParseHealth(s string) (Health, error) {
	switch s {
	case "healthy":
		return Healthy, nil
	case "suspect":
		return Suspect, nil
	case "down":
		return Down, nil
	}
	return Healthy, fmt.Errorf("controlplane: unknown health state %q", s)
}
