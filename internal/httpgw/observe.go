package httpgw

import (
	"cascade/internal/audit"
	"cascade/internal/engine"
	"cascade/internal/flightrec"
)

// SetFlightCapacity replaces the node's flight recorder (its event log:
// breaker, membership, health, spill, coherency and audit events) with one
// retaining the last n events; n <= 0 disables recording (audit violations
// then drop their flight events but still count in the metrics). Call
// before the node serves requests — the request path reads the recorder
// pointer without holding the node lock.
func (n *Node) SetFlightCapacity(capacity int) {
	n.mu.Lock()
	if capacity <= 0 {
		n.flight = nil
	} else {
		n.flight = flightrec.New(capacity)
	}
	n.st.SetFlight(n.flight)
	n.mu.Unlock()
	n.installAuditSink()
}

// installAuditSink points the auditor's violation sink at the current
// flight recorder, so every invariant failure leaves a full-context
// audit_violation event in the node's ring. Record is nil-safe, so a
// disabled recorder simply drops the events. The sink captures the recorder
// by value: it may fire inside protocol steps that hold n.mu and must not
// lock it.
func (n *Node) installAuditSink() {
	rec := n.flight
	n.auditor.SetOnViolation(func(v audit.Violation) {
		rec.Record(engine.ViolationEvent(v))
	})
}

// Auditor returns the node's online invariant auditor.
func (n *Node) Auditor() *audit.Auditor { return n.auditor }

// Ledger returns the node's predicted-vs-realized cost ledger.
func (n *Node) Ledger() *audit.Ledger { return n.ledger }

// DumpFlight captures the node's flight-recorder contents.
func (n *Node) DumpFlight() flightrec.Snapshot {
	return n.flight.TakeSnapshot(n.ID)
}
