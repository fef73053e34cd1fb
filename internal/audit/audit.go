// Package audit implements online invariant monitors for the coordinated
// caching protocol: lightweight checks, wired into internal/engine's
// protocol steps, that continuously verify the running system against the
// paper's analytical guarantees instead of trusting them.
//
// The monitored invariants:
//
//   - LocalBenefit (Theorem 2): every node chosen by the placement decision
//     satisfies f·m ≥ l — caching there is locally worthwhile. The DP can
//     only pick such nodes; a violation means the decision input or the DP
//     itself is corrupted.
//   - DPOptimality (§2.2): on a sampled subset of decisions with small
//     candidate vectors, the DP's gain is compared against an independent
//     exhaustive search over all 2^n placements reimplemented here (this
//     package deliberately does not import internal/core, so the oracle
//     cannot share a bug with the implementation under test).
//   - EvictionOrder (§2.3–2.4): every victim set committed by an insertion
//     is a prefix of the NCL eviction order — no victim's eviction key
//     exceeds the key of any entry retained in the store.
//   - MissPenalty (§2.3): the downstream miss-penalty counter is
//     non-negative, never decreases between caching points, and resets to
//     exactly zero where a copy is placed.
//
// Violations increment per-invariant counters in an internal/metrics
// registry (series cascade_audit_violations_total{invariant=...}) and are
// forwarded to an optional sink callback, which the wiring layers use to
// write full-context audit_violation event records into the violating
// node's span ring — the package itself depends
// only on the standard library, internal/model and internal/metrics
// (cmd/lint enforces this).
//
// All checks are safe for concurrent use: counters are atomic and the
// samplers use atomic state, so one Auditor can serve every node of a
// concurrent transport. A transport that runs several checks per request
// counts them in a request-local Tally and adds it to the shared counters
// once (Publish), so the per-invariant check counters are not a word every
// hop of every request writes.
package audit

import (
	"math"
	"sync/atomic"

	"cascade/internal/metrics"
	"cascade/internal/model"
)

// Invariant identifies one monitored protocol guarantee.
type Invariant uint8

const (
	// LocalBenefit is Theorem 2's f·m ≥ l property of chosen nodes.
	LocalBenefit Invariant = iota
	// DPOptimality is the §2.2 DP-vs-exhaustive-search spot check.
	DPOptimality
	// EvictionOrder is the §2.3 NCL eviction-order property of committed
	// victim sets.
	EvictionOrder
	// MissPenalty is the §2.3 downstream counter consistency property.
	MissPenalty

	numInvariants
)

var invariantNames = [numInvariants]string{
	LocalBenefit:  "local_benefit",
	DPOptimality:  "dp_optimality",
	EvictionOrder: "eviction_order",
	MissPenalty:   "miss_penalty",
}

// String returns the metric label value of the invariant.
func (iv Invariant) String() string {
	if int(iv) < len(invariantNames) {
		return invariantNames[iv]
	}
	return "unknown"
}

// Invariants lists every monitored invariant, in label order — exported so
// smoke tests and documentation can enumerate the metric series.
func Invariants() []Invariant {
	return []Invariant{LocalBenefit, DPOptimality, EvictionOrder, MissPenalty}
}

// Violation carries the full context of one invariant failure, for the
// sink callback (span-ring event records, test assertions, logs).
type Violation struct {
	Invariant Invariant
	Node      model.NodeID
	Obj       model.ObjectID
	Hop       int
	// Got and Want are the invariant-specific observed and required
	// values: (f·m, l) for LocalBenefit, (DP gain, brute-force gain) for
	// DPOptimality, (max victim key, min retained key) for EvictionOrder,
	// (observed counter, expected counter) for MissPenalty.
	Got, Want float64
	// Now is the protocol clock at check time.
	Now float64
}

// Tolerances. The protocol computes costs in float64; the checks must not
// fire on reassociation noise. LocalBenefit and DPOptimality compare values
// assembled by different operation orders, so they use a relative epsilon;
// EvictionOrder and MissPenalty compare values that are bit-identical by
// construction when the implementation is correct, so they are exact.
const (
	relEpsBenefit    = 1e-9
	relEpsOptimality = 1e-6
)

// Tally holds evaluated-check counts that have not reached an Auditor's
// shared counters yet. Every Check method takes one: nil counts the check at
// once; a request that owns a Tally passes it to each check it runs and
// calls Publish before it returns. Violations are never deferred. The zero
// value is empty; a Tally is not safe for concurrent use.
type Tally [numInvariants]int64

// Auditor evaluates the invariants and accounts the results. The zero value
// is not usable; construct with New. A nil *Auditor disables every check
// (all methods are nil-safe), so callers wire hooks unconditionally.
type Auditor struct {
	violations [numInvariants]*metrics.Counter
	checks     [numInvariants]*metrics.Counter

	onViolation atomic.Value // func(Violation)

	// DP spot-check sampling: every spotEvery-th eligible decision is
	// verified, candidate vectors longer than spotMaxN are skipped (the
	// oracle is O(2^n)).
	spotEvery uint64
	spotMaxN  int
	spotSeq   atomic.Uint64
}

// New returns an Auditor whose per-invariant counters are registered in reg
// as cascade_audit_violations_total and cascade_audit_checks_total, each
// with the caller's labels plus invariant="...". A nil reg yields a
// detached auditor: checks run and counts accumulate, but nothing is
// exported (used by the experiment engine, which reads counts directly).
func New(reg *metrics.Registry, labels ...metrics.Label) *Auditor {
	a := &Auditor{spotEvery: 64, spotMaxN: 10}
	for _, iv := range Invariants() {
		if reg == nil {
			a.violations[iv] = &metrics.Counter{}
			a.checks[iv] = &metrics.Counter{}
			continue
		}
		ls := append(append([]metrics.Label(nil), labels...), metrics.L("invariant", iv.String()))
		a.violations[iv] = reg.Counter("cascade_audit_violations_total",
			"Protocol invariant violations detected by the online auditor.", ls...)
		a.checks[iv] = reg.Counter("cascade_audit_checks_total",
			"Protocol invariant checks evaluated by the online auditor.", ls...)
	}
	return a
}

// SetOnViolation installs a sink receiving every violation with full
// context. The sink runs synchronously inside the check and must be safe
// for concurrent use on concurrent transports. A nil fn removes the sink.
func (a *Auditor) SetOnViolation(fn func(Violation)) {
	if a == nil {
		return
	}
	if fn == nil {
		fn = func(Violation) {}
	}
	a.onViolation.Store(fn)
}

// SetSpotCheck configures DP spot-check sampling: every-th eligible
// decision is verified (0 disables), candidate vectors longer than maxN are
// skipped. The defaults are every 64th decision, maxN 10.
func (a *Auditor) SetSpotCheck(every, maxN int) {
	if a == nil {
		return
	}
	if every < 0 {
		every = 0
	}
	if maxN > 16 {
		maxN = 16 // the oracle is O(2^n); callers size scratch for ≤ 16
	}
	a.spotEvery = uint64(every)
	a.spotMaxN = maxN
}

// Violations returns the violation count of one invariant. Zero on nil.
func (a *Auditor) Violations(iv Invariant) int64 {
	if a == nil {
		return 0
	}
	return a.violations[iv].Value()
}

// Checks returns the evaluated-check count of one invariant. Zero on nil.
func (a *Auditor) Checks(iv Invariant) int64 {
	if a == nil {
		return 0
	}
	return a.checks[iv].Value()
}

// TotalViolations sums the violation counters. Zero on nil.
func (a *Auditor) TotalViolations() int64 {
	if a == nil {
		return 0
	}
	var total int64
	for _, iv := range Invariants() {
		total += a.violations[iv].Value()
	}
	return total
}

// Publish adds a request's tallied checks to the shared counters and empties
// the tally. Nil-safe on both.
func (a *Auditor) Publish(t *Tally) {
	if a == nil || t == nil {
		return
	}
	for iv, n := range t {
		if n != 0 {
			a.checks[iv].Add(n)
			t[iv] = 0
		}
	}
}

// count books one evaluated check: in the caller's tally when it keeps one,
// on the shared counter otherwise.
func (a *Auditor) count(t *Tally, iv Invariant) {
	if t != nil {
		t[iv]++
		return
	}
	a.checks[iv].Inc()
}

func (a *Auditor) violate(v Violation) {
	a.violations[v.Invariant].Inc()
	if fn, ok := a.onViolation.Load().(func(Violation)); ok {
		fn(v)
	}
}

// CheckLocalBenefit verifies Theorem 2 on one chosen placement: the node's
// f·m must cover its eviction cost loss l. f, m and l are the values the DP
// consumed (post clamping). Nil-safe.
func (a *Auditor) CheckLocalBenefit(t *Tally, node model.NodeID, obj model.ObjectID, hop int, f, m, l, now float64) {
	if a == nil {
		return
	}
	a.count(t, LocalBenefit)
	fm := f * m
	// Relative epsilon on the larger magnitude absorbs the DP's different
	// association order; the absolute floor covers l ≈ 0.
	tol := relEpsBenefit*math.Max(math.Abs(fm), math.Abs(l)) + 1e-12
	if fm < l-tol {
		a.violate(Violation{Invariant: LocalBenefit, Node: node, Obj: obj, Hop: hop, Got: fm, Want: l, Now: now})
	}
}

// PathPoint is one candidate of a placement decision as the DP consumed it:
// (f_i, m_i, l_i) in the paper's order, index 0 nearest the serving node.
// It mirrors the DP input without importing it, keeping the oracle
// independent.
type PathPoint struct {
	Freq        float64
	MissPenalty float64
	CostLoss    float64
}

// ShouldSpotCheck reports whether the next eligible decision with n
// candidates should be spot-checked, advancing the sampler. Nil-safe
// (false).
func (a *Auditor) ShouldSpotCheck(n int) bool {
	if a == nil || a.spotEvery == 0 || n == 0 || n > a.spotMaxN {
		return false
	}
	return a.spotSeq.Add(1)%a.spotEvery == 0
}

// SpotCheckDP verifies one decision against the exhaustive-search oracle:
// the DP's gain must match the best gain over all 2^n placements of path.
// Call only when ShouldSpotCheck granted the sample; path must be ≤ the
// configured maxN (the oracle is exponential). Nil-safe.
func (a *Auditor) SpotCheckDP(t *Tally, node model.NodeID, obj model.ObjectID, path []PathPoint, dpGain, now float64) {
	if a == nil || len(path) == 0 {
		return
	}
	a.count(t, DPOptimality)
	best := bruteForceGain(path)
	tol := relEpsOptimality*math.Max(math.Abs(best), math.Abs(dpGain)) + 1e-12
	if math.Abs(best-dpGain) > tol {
		a.violate(Violation{Invariant: DPOptimality, Node: node, Obj: obj, Hop: -1, Got: dpGain, Want: best, Now: now})
	}
}

// bruteForceGain maximizes the §2.1 objective
//
//	Δcost = Σ_{i=1..r} ((f_{v_i} − f_{v_{i+1}})·m_{v_i} − l_{v_i}),
//	f_{v_{r+1}} = 0
//
// over all subsets v_1 < … < v_r of path, the empty subset scoring 0. It is
// an independent reimplementation of the objective internal/core optimizes;
// sharing code would let one bug hide the other.
func bruteForceGain(path []PathPoint) float64 {
	n := len(path)
	best := 0.0
	for mask := 1; mask < 1<<uint(n); mask++ {
		gain := 0.0
		fNext := 0.0 // frequency of the next chosen node, scanning client→server
		for i := n - 1; i >= 0; i-- {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			gain += (path[i].Freq-fNext)*path[i].MissPenalty - path[i].CostLoss
			fNext = path[i].Freq
		}
		if gain > best {
			best = gain
		}
	}
	return best
}

// CheckEvictionOrder verifies the §2.3 NCL property of one committed victim
// set: the largest eviction key among the victims must not exceed the
// smallest key among the entries the store retained. Both keys are the
// store's own cached values at commit time, so the comparison is exact —
// the lazy re-key machinery guarantees equality of cached and effective
// keys at selection. Nil-safe.
func (a *Auditor) CheckEvictionOrder(t *Tally, node model.NodeID, obj model.ObjectID, maxVictimKey, minRetainedKey, now float64) {
	if a == nil {
		return
	}
	a.count(t, EvictionOrder)
	if maxVictimKey > minRetainedKey {
		a.violate(Violation{Invariant: EvictionOrder, Node: node, Obj: obj, Hop: -1, Got: maxVictimKey, Want: minRetainedKey, Now: now})
	}
}

// CheckPenaltyStep verifies the §2.3 downstream counter at one hop: prev is
// the counter leaving the previous (server-side) caching point, incoming the
// value handed to this node's DownStep (prev plus the link costs crossed),
// outgoing the value DownStep returned, placed whether a copy was placed
// here. The counter must be non-negative, non-decreasing between caching
// points, reset to exactly zero at a placement, and pass through unchanged
// otherwise. Nil-safe.
func (a *Auditor) CheckPenaltyStep(t *Tally, node model.NodeID, obj model.ObjectID, hop int, prev, incoming, outgoing float64, placed bool) {
	if a == nil {
		return
	}
	a.count(t, MissPenalty)
	switch {
	case prev < 0 || incoming < 0 || outgoing < 0:
		a.violate(Violation{Invariant: MissPenalty, Node: node, Obj: obj, Hop: hop, Got: math.Min(math.Min(prev, incoming), outgoing), Want: 0})
	case incoming < prev:
		a.violate(Violation{Invariant: MissPenalty, Node: node, Obj: obj, Hop: hop, Got: incoming, Want: prev})
	case placed && outgoing != 0:
		a.violate(Violation{Invariant: MissPenalty, Node: node, Obj: obj, Hop: hop, Got: outgoing, Want: 0})
	case !placed && outgoing != incoming:
		a.violate(Violation{Invariant: MissPenalty, Node: node, Obj: obj, Hop: hop, Got: outgoing, Want: incoming})
	}
}
