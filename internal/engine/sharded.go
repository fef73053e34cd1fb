package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// Sharded is one cache node's protocol state — the only per-node type the
// incarnations see. It partitions the state across P independent shards by
// object-ID hash. Each shard owns its own main-cache heap, its own
// d-cache stripe and its own miss-penalty bookkeeping, guarded by a private
// mutex, so concurrent protocol steps on objects in different shards never
// contend. Capacity is split exactly across shards (the byte remainder goes
// to the lowest-numbered shards), and the NCL eviction order of §2.3 holds
// per shard: an insert evicts the ascending-NCL prefix of its own shard's
// heap, which the per-shard audit oracle keeps verifying online.
//
// With Shards == 1 a Sharded node is step-for-step identical to a single
// unsharded node behind an uncontended mutex — the configuration the replay
// simulator runs and the cross-incarnation conformance suite pins, since a
// sharded heap partitions the victim search space and therefore
// legitimately diverges from the unsharded replay at eviction time.
// Multi-shard nodes trade that byte-exact equivalence for parallelism;
// every protocol invariant (Theorem 2 pruning, per-shard NCL order,
// penalty-counter monotonicity, ledger parity) still holds and stays
// audited.
type Sharded struct {
	node   model.NodeID
	shift  uint
	shards []shard
}

// shard is one lock-guarded partition, padded to a whole number of 64-byte
// cache lines so that every shard of a slice sits at the same offset within
// its lines. The pad then keeps each shard's counters, which placements and
// contended acquisitions write, off the line where the next shard's mutex
// starts — whether the slice begins on a line or, as Go's allocator places
// a larger slice of pointerful structs, eight bytes past one
// (TestShardLayout).
type shard struct {
	shardState
	_ [(64 - unsafe.Sizeof(shardState{})%64) % 64]byte
}

// shardState is a shard's content. The counters are atomics so the metrics
// export reads them without taking the shard lock.
type shardState struct {
	mu sync.Mutex
	st nodeState

	inserts   atomic.Int64
	evictions atomic.Int64
	lockWaits atomic.Int64
}

// ShardedConfig assembles a Sharded node state.
type ShardedConfig struct {
	// Node identifies the cache in traces and diagnostics.
	Node model.NodeID
	// Shards is the partition count, rounded up to a power of two
	// (<= 1 means a single shard).
	Shards int
	// CacheBytes is the node's total main-cache capacity, split exactly
	// across shards.
	CacheBytes int64
	// DCacheEntries bounds the node's descriptor cache, split exactly
	// across shards.
	DCacheEntries int
	// DCacheFactory builds each shard's d-cache stripe (heap LFU when nil).
	DCacheFactory dcache.Factory
	// WindowK is the sliding-window size for descriptors created here.
	WindowK int
	// Pooled attaches a per-shard descriptor pool recycling through the
	// shard's d-cache stripe, so the steady-state hot path allocates no
	// descriptors. Safe because every pool is touched only under its
	// shard's lock.
	Pooled bool
	// Ring (the node's span ring, for its event records), Audit and
	// Ledger are shared across shards (all three are internally
	// synchronized); nil disables each.
	Ring   *span.Ring
	Audit  *audit.Auditor
	Ledger *audit.Ledger
	// Coherency is the node's coherency view, shared across shards (the
	// view is internally synchronized; floors and the PSI cursor are
	// node-level state, not per-shard). Nil disables freshness logic.
	Coherency *coherency.NodeView
}

// NormalizeShards rounds a requested shard count up to the power of two
// NewSharded will actually use.
func NormalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewSharded builds a sharded node state.
func NewSharded(cfg ShardedConfig) *Sharded {
	p := NormalizeShards(cfg.Shards)
	if cfg.DCacheFactory == nil {
		cfg.DCacheFactory = dcache.NewFactory
	}
	shift := uint(64)
	for 1<<(64-shift) < p {
		shift--
	}
	s := &Sharded{node: cfg.Node, shift: shift, shards: make([]shard, p)}
	for i := range s.shards {
		ns := nodeState{
			Node:    cfg.Node,
			Store:   cache.NewCostAware(splitBytes(cfg.CacheBytes, p, i)),
			DCache:  cfg.DCacheFactory(splitEntries(cfg.DCacheEntries, p, i)),
			WindowK: cfg.WindowK,
			Ring:    cfg.Ring,
			Audit:   cfg.Audit,
			Ledger:  cfg.Ledger,
			Coh:     cfg.Coherency,
		}
		if cfg.Pooled {
			ns.Pool = &DescPool{}
			ns.Pool.Attach(ns.DCache)
		}
		s.shards[i].st = ns
	}
	return s
}

// splitBytes gives shard i its exact slice of a byte budget: base bytes
// everywhere, the remainder distributed one byte each to the lowest shards,
// so the per-shard capacities always sum to the total.
func splitBytes(total int64, p, i int) int64 {
	base := total / int64(p)
	if int64(i) < total%int64(p) {
		base++
	}
	return base
}

func splitEntries(total, p, i int) int {
	base := total / p
	if i < total%p {
		base++
	}
	return base
}

// ShardOf returns the shard index owning an object. The rule is a Fibonacci
// hash of the object ID (multiply by 2^64/φ, keep the top log2(P) bits): it
// is deterministic across processes and incarnations, spreads sequential
// IDs uniformly, and costs one multiply on the hot path.
func (s *Sharded) ShardOf(obj model.ObjectID) int {
	return int((uint64(obj) * 0x9E3779B97F4A7C15) >> s.shift)
}

// lock acquires a shard's mutex, counting contended acquisitions.
func (s *Sharded) lock(sh *shard) {
	if sh.mu.TryLock() {
		return
	}
	sh.lockWaits.Add(1)
	sh.mu.Lock()
}

// Node returns the node ID this state belongs to.
func (s *Sharded) Node() model.NodeID { return s.node }

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Lookup probes the owning shard during the upstream pass: a hit refreshes
// the copy's access history and makes this node the serving node. It is
// LookupFresh with no request-carried floor, reporting only the hit.
func (s *Sharded) Lookup(obj model.ObjectID, now float64) bool {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	hit := sh.st.LookupFresh(obj, now, 0).Hit
	sh.mu.Unlock()
	return hit
}

// ApplyInvalidations applies a piggybacked (or pushed) invalidation tail,
// routing each entry's copy-drop to the owning shard, then advances the
// shared cursor to head (see nodeState.ApplyInvalidations). It reports how
// many entries raised a floor.
func (s *Sharded) ApplyInvalidations(tail []coherency.Invalidation, head uint64, now float64) int {
	return s.invalidate(span.TraceID{}, tail, head, now, nil)
}

// Invalidate is ApplyInvalidations that records its invalidate events under
// trace tr and also appends to dropped, a caller-owned buffer returned
// possibly grown, every object whose copy it demoted — the copies whose
// bytes the caller must drop (Hop.ApplyInvalidations).
func (s *Sharded) Invalidate(tr span.TraceID, tail []coherency.Invalidation, head uint64, now float64, dropped []model.ObjectID) (int, []model.ObjectID) {
	applied := s.invalidate(tr, tail, head, now, &dropped)
	return applied, dropped
}

func (s *Sharded) invalidate(tr span.TraceID, tail []coherency.Invalidation, head uint64, now float64, dropped *[]model.ObjectID) int {
	view := s.shards[0].st.Coh
	if view == nil || !view.Mode().Validates() {
		return 0
	}
	applied := 0
	for _, inv := range tail {
		sh := &s.shards[s.ShardOf(inv.Obj)]
		s.lock(sh)
		raised, demoted := sh.st.applyInvalidation(tr, inv, now)
		sh.mu.Unlock()
		if raised {
			applied++
		}
		if demoted && dropped != nil {
			*dropped = append(*dropped, inv.Obj)
		}
	}
	view.AdvanceCursor(head)
	return applied
}

// ReadFloor is the effective read floor for floorObj: the node's floor
// raised to the request's floor, in validating modes; zero otherwise.
func (s *Sharded) ReadFloor(floorObj model.ObjectID, floor uint64) uint64 {
	if st := &s.shards[0].st; st.Coh != nil {
		return st.readFloor(floorObj, floor)
	}
	return 0
}

// Coherency returns the node's shared coherency view (nil when off).
func (s *Sharded) Coherency() *coherency.NodeView { return s.shards[0].st.Coh }

// SetCoherency attaches (or detaches) the node's coherency view on every
// shard — configuration before serving, like SetRing.
func (s *Sharded) SetCoherency(view *coherency.NodeView) {
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st.Coh = view
	}
	s.unlockAll()
}

// UpMiss performs the miss-side bookkeeping on the owning shard and returns
// the hop's piggyback record (see nodeState.UpMiss).
func (s *Sharded) UpMiss(obj model.ObjectID, size int64, hop int, link float64, now float64) Candidate {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	c := sh.st.UpMiss(obj, size, hop, link, now)
	sh.mu.Unlock()
	return c
}

// up is Up's probe and miss bookkeeping under one acquisition of the
// owning shard's lock (see nodeState.UpStep).
func (s *Sharded) up(q *Req, floor uint64, tiered bool, mem *store.Meta, recheck bool, idx int, link float64, diskNext bool) (probed, Candidate) {
	sh := &s.shards[s.ShardOf(q.Obj)]
	s.lock(sh)
	p, c := sh.st.UpStep(q, floor, tiered, mem, recheck, idx, link, diskNext)
	sh.mu.Unlock()
	return p, c
}

// DownOutcome reports one downstream step's effect. It carries no
// descriptor pointers: those alias the shard's heap scratch, which is only
// valid under the shard lock.
type DownOutcome struct {
	// MP is the outgoing miss-penalty counter: zero after a successful
	// placement (a fresh copy now sits at this node), the incoming value
	// otherwise.
	MP float64
	// Placed reports a successful insertion.
	Placed bool
	// PlaceFailed reports an instructed placement whose insert failed
	// (the store could not make room at apply time).
	PlaceFailed bool
}

// DownStep applies the response pass on the owning shard (see
// nodeState.DownStepUnder). Victim object IDs are appended to evicted while the
// shard lock is held — the underlying descriptors alias the shard's scratch
// buffer and must not escape — and the (possibly grown) slice is returned,
// so a caller that reuses its buffer takes zero steady-state allocations.
// The hop index is unused (the step's record is the caller's down span);
// the parameter stays because bench/ calls this signature.
func (s *Sharded) DownStep(obj model.ObjectID, size int64, place bool, mp float64, gen uint64, _ int, now float64, evicted []model.ObjectID) (DownOutcome, []model.ObjectID) {
	return s.DownStepUnder(obj, obj, size, place, mp, gen, now, evicted, nil)
}

// DownStepUnder is DownStep with the generation guard reading floorObj's
// floor — a segment's base (see nodeState.DownStepUnder). The shard is
// obj's: only the floor lookup, which the shared view answers under its own
// lock, names the other identity. checks is the caller's audit tally (nil
// counts the step's checks on the auditor at once).
func (s *Sharded) DownStepUnder(obj, floorObj model.ObjectID, size int64, place bool, mp float64, gen uint64, now float64, evicted []model.ObjectID, checks *audit.Tally) (DownOutcome, []model.ObjectID) {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	res := sh.st.DownStepUnder(obj, floorObj, size, place, mp, gen, now, checks)
	evicted = sh.placed(res.Placed, res.Evicted, evicted)
	sh.mu.Unlock()
	return res.DownOutcome, evicted
}

// promote re-admits q.Obj's disk copy at generation gen on the owning shard
// (see nodeState.promote), leaving the victims' IDs in q.victims.
func (s *Sharded) promote(q *Req, size int64, gen uint64) (placed, stale bool) {
	sh := &s.shards[s.ShardOf(q.Obj)]
	s.lock(sh)
	placed, stale, ev := sh.st.promote(q, size, gen)
	q.victims = sh.placed(placed, ev, q.victims[:0])
	sh.mu.Unlock()
	return placed, stale
}

// placed appends an insertion's victims' IDs to ids and counts the
// insertion. Caller holds the shard lock: the victims alias its scratch.
func (sh *shard) placed(ok bool, victims []*cache.Descriptor, ids []model.ObjectID) []model.ObjectID {
	for _, v := range victims {
		ids = append(ids, v.ID)
	}
	if ok {
		sh.inserts.Add(1)
		sh.evictions.Add(int64(len(victims)))
	}
	return ids
}

// Contains reports whether the node currently caches the object.
func (s *Sharded) Contains(obj model.ObjectID) bool {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	ok := sh.st.Store.Contains(obj)
	sh.mu.Unlock()
	return ok
}

// DCacheContains reports whether the node's d-cache holds the object's
// descriptor.
func (s *Sharded) DCacheContains(obj model.ObjectID) bool {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	ok := sh.st.DCache.Contains(obj)
	sh.mu.Unlock()
	return ok
}

// Touch refreshes the access history of obj's cached copy if it is still
// the one a TTL revalidation read, at generation gen and size bytes, and
// reports whether it is.
func (s *Sharded) Touch(obj model.ObjectID, gen uint64, size int64, now float64) bool {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	d := sh.st.Store.Get(obj)
	ok := d != nil && d.Gen == gen && d.Size == size
	if ok {
		sh.st.Store.TouchEntry(d, now)
	}
	sh.mu.Unlock()
	return ok
}

// Demote removes a cached copy and keeps its descriptor in the shard's
// d-cache stripe (an expired copy whose meta history is still valuable).
// Reports whether the object was cached.
func (s *Sharded) Demote(obj model.ObjectID, now float64) bool {
	sh := &s.shards[s.ShardOf(obj)]
	s.lock(sh)
	d := sh.st.Store.Remove(obj)
	if d != nil {
		sh.st.DCache.Put(d, now)
	}
	sh.mu.Unlock()
	return d != nil
}

// lockAll acquires every shard lock in index order (the only multi-lock
// path, so lock ordering is trivially consistent).
func (s *Sharded) lockAll() {
	for i := range s.shards {
		s.lock(&s.shards[i])
	}
}

func (s *Sharded) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// DrainDescriptors empties the whole node's main cache for a cooperative
// departure, returning snapshots of every stored descriptor in global NCL
// eviction order (ascending NCL at now, ties by object ID). The order
// matters: merged across shards it is exactly the order an unsharded node
// would spill, so the parent absorbs the spill in the same sequence
// whichever incarnation — and whichever shard count — drained. All shard
// locks are held for the duration: the drain is atomic against concurrent
// steps. The caller discards the node's d-cache (ResetDCaches; a departing
// node keeps no meta state) and delivers the snapshots to the parent's
// Absorb.
func (s *Sharded) DrainDescriptors(now float64) []cache.DescriptorSnapshot {
	s.lockAll()
	defer s.unlockAll()
	var ds []*cache.Descriptor
	for i := range s.shards {
		s.shards[i].st.Store.ForEach(func(d *cache.Descriptor) { ds = append(ds, d) })
	}
	sort.Slice(ds, func(i, j int) bool {
		ni, nj := ds[i].NCL(now), ds[j].NCL(now)
		if ni != nj {
			return ni < nj
		}
		return ds[i].ID < ds[j].ID
	})
	snaps := make([]cache.DescriptorSnapshot, len(ds))
	for i, d := range ds {
		snaps[i] = d.Snapshot()
		s.shards[s.ShardOf(d.ID)].st.Store.Remove(d.ID)
	}
	return snaps
}

// Absorb folds a departing child's spilled descriptors into the owning
// shards' d-cache stripes, in spill order. Objects already known here — in
// the main cache or the d-cache — are skipped: the local view has fresher
// access history for them. So are snapshots cache.RestoreDescriptor
// refuses. It reports how many descriptors were absorbed (the d-cache may
// evict some again at once; those still count).
func (s *Sharded) Absorb(snaps []cache.DescriptorSnapshot, now float64) int {
	absorbed := 0
	for _, snap := range snaps {
		d, err := cache.RestoreDescriptor(snap)
		if err != nil {
			continue
		}
		sh := &s.shards[s.ShardOf(snap.ID)]
		s.lock(sh)
		if !sh.st.Store.Contains(snap.ID) && !sh.st.DCache.Contains(snap.ID) &&
			sh.st.DCache.Put(d, now) {
			absorbed++
		}
		sh.mu.Unlock()
	}
	return absorbed
}

// ResetDCaches discards every shard's d-cache stripe for a fresh instance of
// the same capacity (a departing node keeps no meta state). The factory that
// built the node builds the replacements.
func (s *Sharded) ResetDCaches(factory dcache.Factory) {
	if factory == nil {
		factory = dcache.NewFactory
	}
	s.lockAll()
	for i := range s.shards {
		st := &s.shards[i].st
		st.DCache = factory(st.DCache.Capacity())
		if st.Pool != nil {
			st.Pool.Attach(st.DCache)
		}
	}
	s.unlockAll()
}

// Snapshot captures every shard's stored descriptors (for warm-start
// persistence), shard by shard.
func (s *Sharded) Snapshot() []cache.DescriptorSnapshot {
	s.lockAll()
	defer s.unlockAll()
	var out []cache.DescriptorSnapshot
	for i := range s.shards {
		out = append(out, s.shards[i].st.Store.Snapshot()...)
	}
	return out
}

// RestoreInsert re-inserts one snapshot into its owning shard if
// cache.RestoreDescriptor accepts it and that shard's free space fits it
// without eviction. Reports success.
func (s *Sharded) RestoreInsert(snap cache.DescriptorSnapshot, now float64) bool {
	d, err := cache.RestoreDescriptor(snap)
	if err != nil {
		return false
	}
	sh := &s.shards[s.ShardOf(snap.ID)]
	s.lock(sh)
	defer sh.mu.Unlock()
	if sh.st.Store.Capacity()-sh.st.Store.Used() < d.Size {
		return false
	}
	_, ok := sh.st.Store.Insert(d, now)
	return ok
}

// SetRing replaces the ring the node's event records go to on every shard
// (observability reconfiguration before serving).
func (s *Sharded) SetRing(r *span.Ring) {
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st.Ring = r
	}
	s.unlockAll()
}

// Used returns the bytes held across all shards.
func (s *Sharded) Used() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		n += sh.st.Store.Used()
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the summed capacity across all shards — exactly the
// configured total, however the remainder was distributed.
func (s *Sharded) Capacity() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].st.Store.Capacity()
	}
	return n
}

// StoreLen returns the object count across all shards.
func (s *Sharded) StoreLen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		n += sh.st.Store.Len()
		sh.mu.Unlock()
	}
	return n
}

// DCacheLen returns the descriptor count across all shards' d-cache stripes.
func (s *Sharded) DCacheLen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		n += sh.st.DCache.Len()
		sh.mu.Unlock()
	}
	return n
}

// DCacheAt exposes one shard's d-cache stripe for inspection. Callers must
// quiesce the node first (tests, post-drain assertions).
func (s *Sharded) DCacheAt(i int) dcache.DCache { return s.shards[i].st.DCache }

// StoreAt exposes one shard's main store for inspection, under the same
// rule as DCacheAt.
func (s *Sharded) StoreAt(i int) *cache.HeapStore { return s.shards[i].st.Store }

// ShardStats is one shard's operational accounting, readable lock-free
// except for the occupancy fields.
type ShardStats struct {
	Inserts   int64 // placements applied by this shard
	Evictions int64 // victims evicted by this shard
	LockWaits int64 // contended lock acquisitions on this shard

	Objects       int   // descriptors in the shard's main store
	UsedBytes     int64 // bytes held by the shard
	CapacityBytes int64 // the shard's capacity slice
	Descriptors   int   // entries in the shard's d-cache stripe
	Pooled        int   // descriptors waiting in the shard's pool (Pooled nodes)
}

// ShardInserts reads one shard's placement count lock-free (metrics path).
func (s *Sharded) ShardInserts(i int) int64 { return s.shards[i].inserts.Load() }

// ShardEvictions reads one shard's eviction count lock-free (metrics path).
func (s *Sharded) ShardEvictions(i int) int64 { return s.shards[i].evictions.Load() }

// ShardLockWaits reads one shard's contended-acquisition count lock-free
// (metrics path).
func (s *Sharded) ShardLockWaits(i int) int64 { return s.shards[i].lockWaits.Load() }

// ShardStatsAt reads one shard's counters (atomics) and occupancy (under
// the shard lock).
func (s *Sharded) ShardStatsAt(i int) ShardStats {
	sh := &s.shards[i]
	out := ShardStats{
		Inserts:   sh.inserts.Load(),
		Evictions: sh.evictions.Load(),
		LockWaits: sh.lockWaits.Load(),
	}
	s.lock(sh)
	out.Objects = sh.st.Store.Len()
	out.UsedBytes = sh.st.Store.Used()
	out.CapacityBytes = sh.st.Store.Capacity()
	out.Descriptors = sh.st.DCache.Len()
	if sh.st.Pool != nil {
		out.Pooled = sh.st.Pool.Len()
	}
	sh.mu.Unlock()
	return out
}
