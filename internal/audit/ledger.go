package audit

import (
	"sort"
	"sync"
	"sync/atomic"

	"cascade/internal/metrics"
	"cascade/internal/model"
)

// Ledger is the predicted-vs-realized cost accounting of the placement
// protocol. At decision time the DP claims each accepted placement will
// reduce the total access cost by its Δcost term
// (f_i − f_{i+1})·m_i − l_i (§2.1); the ledger records that claim against
// what actually happens: every later hit at the placed copy avoids the
// copy's miss penalty, and those avoided penalties accumulate as realized
// savings.
//
// Dimensional note: the predicted side is a cost *rate* (frequencies are
// requests/second, so the term is cost per second), while the realized side
// is an accumulated cost over the observation window. The two are not
// directly comparable as absolute numbers; the ledger reports both so drift
// *trends* between the analytical model and observed behaviour are visible
// (a placement whose predictions grow while its realizations stay flat is
// mispredicted). docs/OBSERVABILITY.md discusses reading them together.
//
// A nil *Ledger disables all accounting (methods are nil-safe). A Ledger is
// safe for concurrent use, and records at different nodes share no lock:
// each node's account has its own mutex, reached through a copy-on-write
// table that only the first record at a node rewrites. Node and Snapshot
// read each account atomically; Totals and Snapshot read the accounts one
// after another, so under concurrent records they are sums of per-node
// states taken at slightly different instants.
type Ledger struct {
	grow  sync.Mutex // serializes table growth (a node's first record)
	table atomic.Pointer[map[model.NodeID]*account]
}

// account is one node's state behind the node's own lock. With the mutex a
// NodeAccount fills a 64-byte allocation, so two nodes' accounts never
// share a cache line.
type account struct {
	mu sync.Mutex
	NodeAccount
}

// NodeAccount is one node's accumulated ledger state.
type NodeAccount struct {
	Node model.NodeID `json:"node"`
	// PredictedGain sums the DP's Δcost terms for placements accepted at
	// this node (a cost rate, see the Ledger dimensional note).
	PredictedGain float64 `json:"predicted_gain"`
	// RealizedSavings sums the avoided miss penalties of hits served by
	// copies at this node (an accumulated cost).
	RealizedSavings float64 `json:"realized_savings"`
	// Predictions counts placement instructions accepted for this node.
	Predictions int64 `json:"predictions"`
	// Placements counts instructed placements that succeeded at apply
	// time; PlaceFailures counts those the store rejected.
	Placements    int64 `json:"placements"`
	PlaceFailures int64 `json:"place_failures"`
	// Hits counts the cache hits behind RealizedSavings.
	Hits int64 `json:"hits"`
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// lookup returns node's account, nil when nothing was ever recorded there.
func (l *Ledger) lookup(node model.NodeID) *account {
	if t := l.table.Load(); t != nil {
		return (*t)[node]
	}
	return nil
}

// account returns node's account, publishing a table that has it on the
// node's first record.
func (l *Ledger) account(node model.NodeID) *account {
	if acc := l.lookup(node); acc != nil {
		return acc
	}
	l.grow.Lock()
	defer l.grow.Unlock()
	next := map[model.NodeID]*account{}
	if t := l.table.Load(); t != nil {
		if acc := (*t)[node]; acc != nil {
			return acc
		}
		for id, a := range *t {
			next[id] = a
		}
	}
	acc := &account{NodeAccount: NodeAccount{Node: node}}
	next[node] = acc
	l.table.Store(&next)
	return acc
}

// RecordPrediction books the DP's predicted Δcost term for one accepted
// placement at node. Nil-safe.
func (l *Ledger) RecordPrediction(node model.NodeID, term float64) {
	if l == nil {
		return
	}
	acc := l.account(node)
	acc.mu.Lock()
	acc.PredictedGain += term
	acc.Predictions++
	acc.mu.Unlock()
}

// RecordPlacement books the apply-time outcome of one instructed placement.
// Nil-safe.
func (l *Ledger) RecordPlacement(node model.NodeID, ok bool) {
	if l == nil {
		return
	}
	acc := l.account(node)
	acc.mu.Lock()
	if ok {
		acc.Placements++
	} else {
		acc.PlaceFailures++
	}
	acc.mu.Unlock()
}

// RecordHit books one hit served by a cached copy at node, avoiding the
// copy's current miss penalty. Nil-safe.
func (l *Ledger) RecordHit(node model.NodeID, avoidedPenalty float64) {
	if l == nil {
		return
	}
	acc := l.account(node)
	acc.mu.Lock()
	acc.RealizedSavings += avoidedPenalty
	acc.Hits++
	acc.mu.Unlock()
}

// Node returns a copy of one node's account (zero value if unseen).
// Nil-safe.
func (l *Ledger) Node(node model.NodeID) NodeAccount {
	if l == nil {
		return NodeAccount{Node: node}
	}
	acc := l.lookup(node)
	if acc == nil {
		return NodeAccount{Node: node}
	}
	acc.mu.Lock()
	defer acc.mu.Unlock()
	return acc.NodeAccount
}

// Snapshot returns a copy of every node's account, sorted by node ID.
// Nil-safe (nil slice).
func (l *Ledger) Snapshot() []NodeAccount {
	if l == nil {
		return nil
	}
	out := []NodeAccount{}
	if t := l.table.Load(); t != nil {
		for _, acc := range *t {
			acc.mu.Lock()
			out = append(out, acc.NodeAccount)
			acc.mu.Unlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Totals sums every node's account (Node is model.NoNode). Nil-safe.
func (l *Ledger) Totals() NodeAccount {
	t := NodeAccount{Node: model.NoNode}
	for _, acc := range l.Snapshot() {
		t.PredictedGain += acc.PredictedGain
		t.RealizedSavings += acc.RealizedSavings
		t.Predictions += acc.Predictions
		t.Placements += acc.Placements
		t.PlaceFailures += acc.PlaceFailures
		t.Hits += acc.Hits
	}
	return t
}

// RegisterNode exports one node's ledger state as scrape-time gauges in
// reg, labelled with the caller's labels: cascade_ledger_predicted_gain,
// cascade_ledger_realized_savings, cascade_ledger_placements_total,
// cascade_ledger_place_failures_total and cascade_ledger_hits_total.
// Nil-safe on the ledger.
func (l *Ledger) RegisterNode(reg *metrics.Registry, node model.NodeID, labels ...metrics.Label) {
	if l == nil || reg == nil {
		return
	}
	reg.GaugeFunc("cascade_ledger_predicted_gain",
		"DP-predicted cost-reduction rate booked for accepted placements at the node.",
		func() float64 { return l.Node(node).PredictedGain }, labels...)
	reg.GaugeFunc("cascade_ledger_realized_savings",
		"Accumulated cost avoided by hits at copies placed at the node.",
		func() float64 { return l.Node(node).RealizedSavings }, labels...)
	reg.CounterFunc("cascade_ledger_placements_total",
		"Instructed placements that succeeded at apply time at the node.",
		func() float64 { return float64(l.Node(node).Placements) }, labels...)
	reg.CounterFunc("cascade_ledger_place_failures_total",
		"Instructed placements the node's store rejected at apply time.",
		func() float64 { return float64(l.Node(node).PlaceFailures) }, labels...)
	reg.CounterFunc("cascade_ledger_hits_total",
		"Hits accounted into the node's realized savings.",
		func() float64 { return float64(l.Node(node).Hits) }, labels...)
}
