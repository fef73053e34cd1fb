// Package store is the data plane of the coordinated cache: it owns object
// *bytes*, strictly separated from the descriptor plane (internal/engine,
// internal/cache) that owns placement metadata. A Tiered store pairs an
// in-memory first tier — mirroring the node's main descriptor store — with
// an optional disk-backed second tier that absorbs NCL evictions as *spill*
// instead of drops: the descriptor leaves the main store (§2.3 eviction
// order untouched), but the payload survives on disk and is promoted back
// to memory on the next hit, saving the upstream fetch.
//
// The package also carries the deterministic synthetic payload generator
// shared by the origin and the conformance suite (SyntheticBody,
// SyntheticRange — one LCG, run as eight interleaved lanes advanced by the
// 8-step affine map so the multiplies overlap; the bytes are those of the
// serial recurrence, pinned by golden vectors) and the segment identity math for Range-segmented large
// objects (SegmentID, SegmentCount) — every incarnation must derive the
// same bytes and the same segment identities or body-hash conformance
// cannot hold.
//
// Dependency discipline (enforced by cmd/lint): standard library
// plus internal/model and internal/metrics only. The data plane sits below
// every incarnation and must not reach back into the protocol.
package store

import (
	"sync"
	"time"

	"cascade/internal/model"
)

// Meta is the payload metadata a tier keeps next to the bytes: the HTTP
// validator, the time the copy was (re)validated, and the coherency
// generation the body was fetched at. All of it must survive a spill so a
// promoted copy revalidates — and generation-checks — exactly like one
// that never left memory.
type Meta struct {
	ETag    string
	Fetched float64
	// Gen is the coherency generation of the body (zero when coherency
	// is off). Persisted in the disk tier's CBS1 records and validated
	// against Config.MinGen so a spill can never resurrect stale bytes.
	Gen uint64
}

// Source reports which tier satisfied a Get.
type Source uint8

const (
	// SrcNone: no tier holds the object (or the disk copy failed its CRC
	// check and was discarded).
	SrcNone Source = iota
	// SrcMemory: served from the in-memory first tier.
	SrcMemory
	// SrcDisk: served from the disk-backed second tier; the caller should
	// promote the object after re-admitting its descriptor.
	SrcDisk
)

// Stats is a consistent snapshot of a Tiered store's accounting.
type Stats struct {
	MemObjects  int   // objects in the memory tier
	MemBytes    int64 // bytes held by the memory tier
	DiskObjects int   // objects in the disk tier
	DiskBytes   int64 // bytes held by the disk tier

	SpillObjectsTotal int64 // evictions whose bytes landed on disk
	SpillBytesTotal   int64 // bytes spilled to disk, cumulative
	SpillDrops        int64 // evictions dropped (no disk tier, write failure, or disk-capacity eviction)
	Promotions        int64 // disk copies promoted back to memory
	DiskHits          int64 // Gets served by the disk tier
	CorruptReads      int64 // disk files discarded on CRC/format mismatch
	Expired           int64 // disk files discarded by the TTL sweep
	StaleGenDrops     int64 // disk files discarded because their generation fell below the floor
}

// Config assembles a Tiered store.
type Config struct {
	// Dir, when non-empty, enables the disk tier: one CRC-checked file per
	// object beneath this directory (created if needed). Empty means
	// spills are dropped, which is the pre-data-plane behaviour.
	Dir string
	// DiskBytes bounds the disk tier (0 = unbounded); exceeding it evicts
	// the oldest spilled objects.
	DiskBytes int64
	// DiskTTL, when positive, expires disk copies older than this many
	// seconds under Clock.
	DiskTTL float64
	// Clock supplies seconds for spill timestamps and the TTL sweep
	// (wall-clock seconds since construction when nil).
	Clock func() float64
	// MinGen, when set, is the node's generation-floor oracle: disk
	// copies whose persisted generation is below MinGen(id) are
	// discarded at startup adoption and on read, so a spill can never
	// resurrect a body that an invalidation already covered. Nil
	// disables the check. The oracle must be safe for concurrent use and
	// must not call back into the store.
	MinGen func(model.ObjectID) uint64
}

// memEntry is one memory-tier object. The byte slice is immutable once
// stored: readers may retain it without copying.
type memEntry struct {
	body []byte
	meta Meta
}

// Tiered is the two-tier body store. All methods are safe for concurrent
// use; file I/O for the disk tier happens under the store's mutex, which is
// acceptable because spill and promote sit off the memory-hit fast path.
// The callbacks of Admit, SpillUnless and DeleteUnless run under the mutex
// too, so a caller may take its descriptor store's locks inside the
// store's, never the other way round.
type Tiered struct {
	mu       sync.Mutex
	mem      map[model.ObjectID]memEntry
	memBytes int64
	disk     *diskTier // nil when Config.Dir is empty

	spillObjects int64
	spillBytes   int64
	spillDrops   int64
	promotions   int64
	diskHits     int64
}

// NewTiered builds a Tiered store. The only failure mode is an unusable
// disk directory.
func NewTiered(cfg Config) (*Tiered, error) {
	t := &Tiered{mem: make(map[model.ObjectID]memEntry)}
	if cfg.Dir != "" {
		clock := cfg.Clock
		if clock == nil {
			start := time.Now()
			clock = func() float64 { return time.Since(start).Seconds() }
		}
		d, err := newDiskTier(cfg.Dir, cfg.DiskBytes, cfg.DiskTTL, clock, cfg.MinGen)
		if err != nil {
			return nil, err
		}
		t.disk = d
	}
	return t, nil
}

// Put stores an object's bytes in the memory tier (a fresh placement). The
// caller must not mutate body afterwards.
func (t *Tiered) Put(id model.ObjectID, body []byte, meta Meta) {
	t.mu.Lock()
	t.putLocked(id, body, meta)
	t.mu.Unlock()
}

func (t *Tiered) putLocked(id model.ObjectID, body []byte, meta Meta) {
	if old, ok := t.mem[id]; ok {
		t.memBytes -= int64(len(old.body))
	}
	t.mem[id] = memEntry{body: body, meta: meta}
	t.memBytes += int64(len(body))
}

// Admit stores an object's bytes in the memory tier if admit, asked under
// the tier's lock, reports that its descriptor entered the main store. So no
// reader finds the descriptor without its bytes, and no eviction's spill
// runs between the two. A promotion (promote) also drops the disk copy that
// Get read body and meta from. admit must not call back into the tier.
func (t *Tiered) Admit(id model.ObjectID, body []byte, meta Meta, promote bool, admit func() bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !admit() {
		return
	}
	t.putLocked(id, body, meta)
	if promote {
		if t.disk != nil {
			t.disk.remove(id)
		}
		t.promotions++
	}
}

// Get returns an object's bytes from the first tier that holds them. A disk
// read is CRC-verified; a corrupt or expired file is discarded and counted,
// and the Get reports SrcNone — exactly a miss, never silent garbage. Disk
// hits do NOT auto-promote: promotion must follow a successful descriptor
// re-admission, which only the caller can perform.
func (t *Tiered) Get(id model.ObjectID) ([]byte, Meta, Source) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.mem[id]; ok {
		return e.body, e.meta, SrcMemory
	}
	if t.disk != nil {
		if body, meta, ok := t.disk.get(id); ok {
			t.diskHits++
			return body, meta, SrcDisk
		}
	}
	return nil, Meta{}, SrcNone
}

// Contains reports which tier, if any, holds the object (without the cost
// of a CRC-verified read).
func (t *Tiered) Contains(id model.ObjectID) Source {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.mem[id]; ok {
		return SrcMemory
	}
	if t.disk != nil && t.disk.contains(id) {
		return SrcDisk
	}
	return SrcNone
}

// Spill moves an object's bytes from memory to the disk tier — the data
// plane's image of an NCL eviction. Without a disk tier (or on write
// failure) the bytes are dropped and counted. Reports whether the bytes
// survived on disk.
func (t *Tiered) Spill(id model.ObjectID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.spillLocked(id)
	return ok
}

// SpillUnless is Spill for a caller whose eviction may already be stale:
// keep is asked, under the tier's lock, whether the object is resident again
// (a concurrent placement re-admitted it and stored a fresh body), and the
// bytes stay in memory if it is. Holding the lock across the question means
// no body can be stored between the answer and the move. keep must not call
// back into the tier. It reports the size of the bytes and whether they
// reached disk.
func (t *Tiered) SpillUnless(id model.ObjectID, keep func(model.ObjectID) bool) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if keep(id) {
		return 0, false
	}
	return t.spillLocked(id)
}

func (t *Tiered) spillLocked(id model.ObjectID) (int, bool) {
	e, ok := t.mem[id]
	if !ok {
		return 0, false
	}
	delete(t.mem, id)
	t.memBytes -= int64(len(e.body))
	if t.disk == nil {
		t.spillDrops++
		return len(e.body), false
	}
	if err := t.disk.put(id, e.body, e.meta); err != nil {
		t.spillDrops++
		return len(e.body), false
	}
	t.spillObjects++
	t.spillBytes += int64(len(e.body))
	t.spillDrops += int64(t.disk.takeEvicted())
	return len(e.body), true
}

// SpillAll spills every memory-tier object (a draining node parks its bytes
// on disk; the descriptors migrate separately through the control plane).
func (t *Tiered) SpillAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]model.ObjectID, 0, len(t.mem))
	for id := range t.mem {
		ids = append(ids, id)
	}
	for _, id := range ids {
		t.spillLocked(id)
	}
}

// DeleteUnless drops an object from every tier, unless keep, asked under
// the tier's lock, reports it resident again — a concurrent placement
// stored fresh bytes since the caller's demotion. keep must not call back
// into the tier.
func (t *Tiered) DeleteUnless(id model.ObjectID, keep func(model.ObjectID) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if keep(id) {
		return
	}
	if e, ok := t.mem[id]; ok {
		t.memBytes -= int64(len(e.body))
		delete(t.mem, id)
	}
	if t.disk != nil {
		t.disk.remove(id)
	}
}

// Reset drops the memory tier (a crash or a shard rebuild loses RAM; disk
// files survive exactly as a real process restart would leave them).
func (t *Tiered) Reset() {
	t.mu.Lock()
	t.mem = make(map[model.ObjectID]memEntry)
	t.memBytes = 0
	t.mu.Unlock()
}

// Sweep removes expired disk copies at time now (also runs opportunistically
// during spills).
func (t *Tiered) Sweep(now float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.disk == nil {
		return 0
	}
	return t.disk.sweep(now)
}

// ForEachMemory visits every memory-tier object (snapshot persistence).
// The callback must not call back into the store.
func (t *Tiered) ForEachMemory(fn func(id model.ObjectID, body []byte, meta Meta)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range t.mem {
		fn(id, e.body, e.meta)
	}
}

// Stats returns a consistent accounting snapshot.
func (t *Tiered) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Stats{
		MemObjects:        len(t.mem),
		MemBytes:          t.memBytes,
		SpillObjectsTotal: t.spillObjects,
		SpillBytesTotal:   t.spillBytes,
		SpillDrops:        t.spillDrops,
		Promotions:        t.promotions,
		DiskHits:          t.diskHits,
	}
	if t.disk != nil {
		s.DiskObjects = len(t.disk.entries)
		s.DiskBytes = t.disk.bytes
		s.CorruptReads = t.disk.corrupt
		s.Expired = t.disk.expired
		s.StaleGenDrops = t.disk.staleGen
	}
	return s
}
