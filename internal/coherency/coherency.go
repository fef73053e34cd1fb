// Package coherency is the engine-native consistency substrate of the
// cascade. The paper assumes cached copies are fresh ("objects stored in
// the caches are up-to-date … by using a cache coherency protocol [9] if
// necessary", §2, citing Krishnamurthy & Wills' piggyback server
// invalidation). This package makes that assumption a protocol concern
// instead of a simulator sidecar:
//
//   - every object carries a monotonically increasing **generation**,
//     owned by the origin-side Authority and bumped on each write;
//   - cached copies record the generation they were fetched at
//     (cache.Descriptor.Gen, persisted in the disk tier's CBS1 records);
//   - each cache node keeps a NodeView: per-object generation floors (the
//     oldest generation it may still serve) plus a cursor into the
//     authority's invalidation log;
//   - origin-served responses piggyback the log tail PSI-style; explicit
//     writes push the same entries down the distribution tree; either way
//     a node raises its floors and drops copies older than them;
//   - CAS-strict mode carries the current generation as a read floor on
//     the request itself, so a stale copy self-heals to a miss
//     (cascache-style read-side validation) and a read after a write can
//     never observe the old bytes.
//
// The same three engine entry points (LookupFresh, ApplyInvalidations,
// generation-stamped DownStep/Promote) serve the replay simulator, the
// cluster and the HTTP gateway chain; conformance replays a mixed
// read/write trace through all three and asserts identical served, placed
// and invalidated sets.
//
// Dependency rule (enforced by cmd/lint): stdlib + internal/model +
// internal/metrics only — the substrate sits below every incarnation.
package coherency

import (
	"fmt"
	"math/rand"
	"sync"

	"cascade/internal/metrics"
	"cascade/internal/model"
)

// Mode selects the consistency mechanism a node enforces on reads.
type Mode uint8

// Available modes, ordered by strictness.
const (
	// ModeNone is the paper's assumption: cached copies are served as-is.
	ModeNone Mode = iota
	// ModeTTL serves copies younger than a freshness lifetime and demotes
	// older ones to a miss (the refetch travels the path like any miss).
	ModeTTL
	// ModePSI applies origin-piggybacked invalidations: responses served
	// by the origin carry the tail of its invalidation log and every node
	// on the response path raises its floors and drops stale copies.
	ModePSI
	// ModeCAS is strict read-your-writes: requests carry the object's
	// current generation as a floor and any older copy self-heals to a
	// miss, so no read after a write ever observes the old bytes.
	ModeCAS
)

// String names the mode (the -exp freshness-frontier column labels).
func (m Mode) String() string {
	switch m {
	case ModeTTL:
		return "TTL"
	case ModePSI:
		return "PSI"
	case ModeCAS:
		return "CAS"
	default:
		return "None"
	}
}

// ParseMode is String's inverse (case-sensitive, matching flag syntax).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "None", "none":
		return ModeNone, nil
	case "TTL", "ttl":
		return ModeTTL, nil
	case "PSI", "psi":
		return ModePSI, nil
	case "CAS", "cas":
		return ModeCAS, nil
	}
	return ModeNone, fmt.Errorf("coherency: unknown mode %q", s)
}

// Validates reports whether the mode compares copy generations against
// floors on the read path (PSI and CAS; None and TTL never consult floors).
func (m Mode) Validates() bool { return m == ModePSI || m == ModeCAS }

// TailK is the number of most-recent invalidation-log entries an origin
// piggybacks on a response (and an explicit invalidation pushes down the
// tree). Every incarnation uses the same K with the same cursor rule, so
// the applied sets agree across transports.
const TailK = 32

// logCap bounds the authority's in-memory invalidation log ring. Entries
// older than the last logCap writes fall off; a node whose cursor lags
// further behind simply misses them — bounded staleness under PSI, which
// CAS-strict's request floors close completely.
const logCap = 256

// Invalidation is one entry of the origin's invalidation log: write number
// Seq set object Obj to generation Gen.
type Invalidation struct {
	Seq uint64         `json:"seq"`
	Obj model.ObjectID `json:"obj"`
	Gen uint64         `json:"gen"`
}

// Authority is the origin-side generation authority: the current
// generation of every written object plus a bounded log of recent writes.
// Safe for concurrent use (the gateway origin serves requests in parallel).
type Authority struct {
	mu   sync.RWMutex
	gens map[model.ObjectID]uint64
	log  [logCap]Invalidation
	head uint64 // sequence number of the latest write (0 = none yet)
}

// NewAuthority builds an empty authority: every object at generation 0.
func NewAuthority() *Authority {
	return &Authority{gens: make(map[model.ObjectID]uint64)}
}

// Bump records a write of obj: its generation increments and the write is
// appended to the invalidation log. Returns the new generation and the
// write's sequence number.
func (a *Authority) Bump(obj model.ObjectID) (gen, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	gen = a.gens[obj] + 1
	a.gens[obj] = gen
	a.head++
	a.log[a.head%logCap] = Invalidation{Seq: a.head, Obj: obj, Gen: gen}
	return gen, a.head
}

// Gen returns obj's current generation (0 if never written).
func (a *Authority) Gen(obj model.ObjectID) uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.gens[obj]
}

// Head returns the sequence number of the latest write.
func (a *Authority) Head() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.head
}

// Tail appends the most recent min(TailK, available) log entries to buf in
// ascending sequence order and returns it — the payload an origin
// piggybacks on a response (the tail of X-Cascade-Decision on the wire).
func (a *Authority) Tail(buf []Invalidation) []Invalidation {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := uint64(TailK)
	if a.head < n {
		n = a.head
	}
	if a.head > logCap && n > logCap {
		n = logCap
	}
	for seq := a.head - n + 1; n > 0 && seq <= a.head; seq++ {
		buf = append(buf, a.log[seq%logCap])
	}
	return buf
}

// NodeView is one cache node's view of the coherency protocol: its
// generation floors (the oldest generation of each object it may still
// serve), its cursor into the authority's log, and — in TTL mode — the
// fetch times of its copies. Safe for concurrent use; the engine's shard
// locks do not cover it.
type NodeView struct {
	mode     Mode
	lifetime float64

	mu      sync.RWMutex
	floors  map[model.ObjectID]uint64
	fetched map[model.ObjectID]float64
	cursor  uint64

	m *Metrics // nil-safe: counters are optional
}

// NewNodeView builds a view enforcing mode. lifetime is the TTL freshness
// lifetime in seconds (default 3600; ignored by other modes).
func NewNodeView(mode Mode, lifetime float64) *NodeView {
	if lifetime <= 0 {
		lifetime = 3600
	}
	v := &NodeView{mode: mode, lifetime: lifetime, floors: make(map[model.ObjectID]uint64)}
	if mode == ModeTTL {
		v.fetched = make(map[model.ObjectID]float64)
	}
	return v
}

// Mode returns the enforced mode.
func (v *NodeView) Mode() Mode { return v.mode }

// SetMetrics attaches the coherency counters (nil detaches).
func (v *NodeView) SetMetrics(m *Metrics) {
	v.mu.Lock()
	v.m = m
	v.mu.Unlock()
}

// Metrics returns the attached counters (may be nil).
func (v *NodeView) Metrics() *Metrics {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.m
}

// Floor returns the oldest generation of obj this node may serve.
func (v *NodeView) Floor(obj model.ObjectID) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.floors[obj]
}

// Raise lifts obj's floor to gen and reports whether it moved.
func (v *NodeView) Raise(obj model.ObjectID, gen uint64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.floors[obj] >= gen {
		return false
	}
	v.floors[obj] = gen
	return true
}

// ShouldApply reports whether a log entry with sequence seq is news to
// this node (strictly past its cursor).
func (v *NodeView) ShouldApply(seq uint64) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return seq > v.cursor
}

// AdvanceCursor moves the cursor forward to head (never backward).
func (v *NodeView) AdvanceCursor(head uint64) {
	v.mu.Lock()
	if head > v.cursor {
		v.cursor = head
	}
	v.mu.Unlock()
}

// Cursor returns the highest log sequence this node has applied.
func (v *NodeView) Cursor() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.cursor
}

// RecordFetch notes that this node received a fresh copy of obj at time
// now (TTL bookkeeping; a no-op in other modes).
func (v *NodeView) RecordFetch(obj model.ObjectID, now float64) {
	if v.mode != ModeTTL {
		return
	}
	v.mu.Lock()
	v.fetched[obj] = now
	v.mu.Unlock()
}

// Expired reports whether obj's copy has outlived the TTL lifetime. Copies
// never recorded (adopted from before the view attached) count as fresh
// from now, matching the old tracker's adoption rule.
func (v *NodeView) Expired(obj model.ObjectID, now float64) bool {
	if v.mode != ModeTTL {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	t, ok := v.fetched[obj]
	if !ok {
		v.fetched[obj] = now
		return false
	}
	if now-t > v.lifetime {
		delete(v.fetched, obj)
		return true
	}
	return false
}

// Forget drops obj's TTL bookkeeping (the copy left the cache).
func (v *NodeView) Forget(obj model.ObjectID) {
	if v.mode != ModeTTL {
		return
	}
	v.mu.Lock()
	delete(v.fetched, obj)
	v.mu.Unlock()
}

// Floors snapshots the floors map — the node's invalidation state. The
// conformance suite compares these across incarnations: equal floors mean
// the same invalidations reached the same nodes.
func (v *NodeView) Floors() map[model.ObjectID]uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[model.ObjectID]uint64, len(v.floors))
	for k, val := range v.floors {
		out[k] = val
	}
	return out
}

// Metrics bundles the cascade_coherency_* counters. All methods are
// nil-safe so unconfigured paths pay only a nil check.
type Metrics struct {
	staleHits     *metrics.Counter
	invalidations *metrics.Counter
	revalidations *metrics.Counter
	casConflicts  *metrics.Counter
}

// NewMetrics registers the coherency series on reg with the given labels.
func NewMetrics(reg *metrics.Registry, labels ...metrics.Label) *Metrics {
	return &Metrics{
		staleHits:     reg.Counter("cascade_coherency_stale_hits_total", "Stale copies detected on the read path (self-healed to a miss, or served stale-if-error).", labels...),
		invalidations: reg.Counter("cascade_coherency_invalidations_total", "Invalidation-log entries applied at this node (floors raised).", labels...),
		revalidations: reg.Counter("cascade_coherency_revalidations_total", "TTL expiries demoted to a revalidating miss.", labels...),
		casConflicts:  reg.Counter("cascade_coherency_cas_conflicts_total", "Placements rejected because the copy's generation was below the node's floor.", labels...),
	}
}

// StaleHit counts one stale copy detected on the read path.
func (m *Metrics) StaleHit() {
	if m != nil {
		m.staleHits.Inc()
	}
}

// Invalidation counts one applied invalidation-log entry.
func (m *Metrics) Invalidation() {
	if m != nil {
		m.invalidations.Inc()
	}
}

// Revalidation counts one TTL expiry demoted to a miss.
func (m *Metrics) Revalidation() {
	if m != nil {
		m.revalidations.Inc()
	}
}

// CASConflict counts one generation-rejected placement.
func (m *Metrics) CASConflict() {
	if m != nil {
		m.casConflicts.Inc()
	}
}

// Config parameterizes the synthetic update process driving an authority
// in replay experiments.
type Config struct {
	Mode Mode
	// ObjectUpdateInterval is the mean seconds between updates of one
	// object (Poisson). Zero disables updates entirely.
	ObjectUpdateInterval float64
	// Lifetime is the TTL mode's freshness lifetime in seconds
	// (default 3600).
	Lifetime float64
	// Seed drives the update process.
	Seed int64
}

// Process is a seeded Poisson object-update process (web objects are
// mostly static — access ≫ update frequency — so rates are low). Each
// generated update bumps the authority, exactly as a write would.
// Single-owner, like the simulator that drives it.
type Process struct {
	auth    *Authority
	objects []model.Object
	r       *rand.Rand
	nextUpd float64
	rate    float64 // total update rate (updates/second over all objects)

	// Updates counts object updates generated so far.
	Updates int64
}

// NewProcess builds the update process over a catalog's objects, driving
// auth. The RNG stream (seed+99) and rate math match the seed-era tracker,
// keeping replay results comparable across the refactor.
func NewProcess(cfg Config, objects []model.Object, auth *Authority) *Process {
	p := &Process{
		auth:    auth,
		objects: objects,
		r:       rand.New(rand.NewSource(cfg.Seed + 99)),
	}
	if cfg.ObjectUpdateInterval > 0 && len(objects) > 0 {
		p.rate = float64(len(objects)) / cfg.ObjectUpdateInterval
		p.nextUpd = p.r.ExpFloat64() / p.rate
	}
	return p
}

// Advance generates all object updates up to time now, bumping the
// authority for each, and returns how many fired.
func (p *Process) Advance(now float64) int {
	if p.rate == 0 {
		return 0
	}
	fired := 0
	for p.nextUpd <= now {
		obj := p.objects[p.r.Intn(len(p.objects))]
		p.auth.Bump(obj.ID)
		p.Updates++
		fired++
		p.nextUpd += p.r.ExpFloat64() / p.rate
	}
	return fired
}
