package cache

import (
	"fmt"
	"math"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// KeyFunc computes the eviction key of a descriptor at a point in time; the
// store evicts ascending by key. The function may consult (and thereby
// refresh) the descriptor's frequency estimate.
type KeyFunc func(d *Descriptor, now float64) float64

// NCLKey is the normalized-cost-loss key of the paper: f(O)·m(O)/s(O).
func NCLKey(d *Descriptor, now float64) float64 { return d.NCL(now) }

// FreqKey is a plain frequency key, yielding LFU behaviour.
func FreqKey(d *Descriptor, now float64) float64 { return d.Window.Estimate(now) }

// HeapStore is a capacity-bounded object store whose eviction order follows
// a key function, maintained in a binary min-heap as suggested in paper
// §2.4 (O(log m) per adjustment). The heap (descHeap) is a slice of value
// slots carrying each entry's key and ID inline, so ordering decisions read
// only the heap's own contiguous memory and never a descriptor. A lookup by
// ID goes through a flat open-addressing index (index) whose hash is seeded
// per store; every walk over the entries follows the heap instead, so no
// result depends on the seed.
//
// Keys derived from sliding-window frequency estimates are piecewise
// constant: Estimate only re-evaluates when an object is referenced or its
// last evaluation is older than the refresh interval. The store keeps heap
// keys in step with those semantics two ways: touched entries are re-keyed
// on update, and a full re-key sweep runs once per aging interval
// (paper §3.2's 10-minute refresh) so the keys of unreferenced objects
// decay too. Victim selection additionally re-keys stale minima as they
// surface from the heap.
//
// Re-keying is lazy: Touch and SetMissPenalty compute the entry's new key
// immediately (so it reflects the update-time estimate) but defer the
// O(log m) heap repair until the next victim selection, coalescing repeated
// updates of hot entries between evictions into one sift. Because the heap
// ordering is a strict total order (key, then ID), the victim sequence
// after a flush is identical to eager repair — replay determinism is
// unaffected.
type HeapStore struct {
	capacity  int64
	used      int64
	unit      bool // capacity counted in entries instead of bytes
	keyFn     KeyFunc
	idx       index // finds an entry by ID; h owns every walk over entries
	h         descHeap
	epoch     uint32  // current victim selection, 1 … epochMask
	aging     float64 // full re-key sweep interval (seconds)
	lastSweep float64

	dirty     []*Descriptor // entries with a deferred heap repair
	victimBuf []*Descriptor // scratch for selectVictims, reused per call
}

// NewCostAware returns a byte-capacity store with NCL eviction — the main
// cache of the coordinated and LNC-R schemes.
func NewCostAware(capacity int64) *HeapStore {
	return newHeapStore(capacity, false, NCLKey)
}

// NewLFU returns a byte-capacity store with least-frequently-used eviction.
func NewLFU(capacity int64) *HeapStore {
	return newHeapStore(capacity, false, FreqKey)
}

// NewDescriptorLFU returns an entry-capacity LFU store, as used by the
// d-cache to hold descriptors of objects absent from the main cache.
func NewDescriptorLFU(capacity int64) *HeapStore {
	return newHeapStore(capacity, true, FreqKey)
}

func newHeapStore(capacity int64, unit bool, keyFn KeyFunc) *HeapStore {
	if capacity < 0 {
		capacity = 0
	}
	return &HeapStore{
		capacity: capacity,
		unit:     unit,
		keyFn:    keyFn,
		idx:      newIndex(),
		aging:    freq.DefaultRefreshInterval,
	}
}

// SetAgingInterval overrides the interval (seconds) between full re-key
// sweeps. Values ≤ 0 disable sweeping.
func (s *HeapStore) SetAgingInterval(seconds float64) { s.aging = seconds }

// maybeSweep re-keys every entry and restores the heap whenever the aging
// interval has elapsed. This is the paper's "updated … at reasonably large
// intervals to reflect aging": objects that stopped being referenced see
// their frequency estimates — and hence eviction keys — decay even though
// no request touches them.
func (s *HeapStore) maybeSweep(now float64) {
	if s.aging <= 0 || now-s.lastSweep < s.aging {
		return
	}
	s.lastSweep = now
	// The sweep recomputes every key and rebuilds the heap wholesale, so
	// any deferred repairs are subsumed.
	for _, d := range s.dirty {
		d.mark &^= dirtyBit
	}
	s.dirty = s.dirty[:0]
	for i := range s.h {
		sl := &s.h[i]
		sl.key = s.keyFn(sl.d, now)
		sl.d.key = sl.key
	}
	s.h.init()
}

// flushDirty applies deferred re-keys, restoring the heap invariant before
// an order-sensitive operation (victim selection, removal): each dirty
// entry's slot takes the key its descriptor now holds. Each entry is fixed
// individually: the heap is valid apart from the one entry whose key
// changes, so descHeap.fix fully restores it per step.
func (s *HeapStore) flushDirty() {
	if len(s.dirty) == 0 {
		return
	}
	for i, d := range s.dirty {
		if d.dirty() && d.heapIndex >= 0 {
			s.h.fix(int(d.heapIndex))
		}
		d.mark &^= dirtyBit
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
}

// Capacity returns the configured capacity (bytes, or entries for
// descriptor stores).
func (s *HeapStore) Capacity() int64 { return s.capacity }

// Used returns the occupied capacity.
func (s *HeapStore) Used() int64 { return s.used }

// Len returns the number of stored descriptors.
func (s *HeapStore) Len() int { return len(s.h) }

// Contains reports whether the object is present.
func (s *HeapStore) Contains(id model.ObjectID) bool { return s.idx.get(id) != nil }

// Get returns the descriptor for id, or nil.
func (s *HeapStore) Get(id model.ObjectID) *Descriptor { return s.idx.get(id) }

// Touch records an access to id at time now and repositions it in the
// eviction order. It reports whether the object was present.
func (s *HeapStore) Touch(id model.ObjectID, now float64) bool {
	s.maybeSweep(now)
	d := s.idx.get(id)
	if d == nil {
		return false
	}
	d.Window.Record(now)
	s.rekey(d, now)
	return true
}

// SetMissPenalty updates m(O) for a stored object and repositions it in the
// eviction order. It reports whether the object was present.
func (s *HeapStore) SetMissPenalty(id model.ObjectID, m, now float64) bool {
	s.maybeSweep(now)
	d := s.idx.get(id)
	if d == nil {
		return false
	}
	d.missPenalty = m
	s.rekey(d, now)
	return true
}

// rekey records the entry's key at update time in d.key and schedules the
// heap repair for the next flushDirty; until then the entry's slot keeps the
// key it sorts under, which is all the sifts read. No-op when the key is
// unchanged (the common case while the sliding-window estimate is fresh).
func (s *HeapStore) rekey(d *Descriptor, now float64) {
	k := s.keyFn(d, now)
	if k == d.key {
		return
	}
	d.key = k
	if !d.dirty() {
		d.mark |= dirtyBit
		s.dirty = append(s.dirty, d)
	}
}

// nextEpoch starts a victim selection. The epoch lives in 31 bits of each
// descriptor's mark; when the counter would leave them it restarts at 1 and
// every entry's epoch is cleared, so no entry can look as though it already
// surfaced in a selection it has not.
func (s *HeapStore) nextEpoch() {
	s.epoch++
	if s.epoch <= epochMask {
		return
	}
	s.epoch = 1
	for i := range s.h {
		s.h[i].d.setEpoch(0)
	}
}

func (s *HeapStore) entrySize(d *Descriptor) int64 {
	if s.unit {
		return 1
	}
	return d.Size
}

// selectVictims pops ascending-key victims until free ≥ need, re-keying
// stale entries as they surface. Victims are returned removed from the
// heap; the caller either commits (removes from entries) or rolls back
// (pushes them back). Returns nil, false when need exceeds capacity.
//
// The returned slice is the store's reusable scratch buffer: it is valid
// only until the next selection (CostLoss or Insert) on this store.
func (s *HeapStore) selectVictims(need int64, now float64) ([]*Descriptor, bool) {
	if need > s.capacity {
		return nil, false
	}
	free := s.capacity - s.used
	if free >= need {
		return nil, true
	}
	s.flushDirty()
	s.nextEpoch()
	victims := s.victimBuf[:0]
	for free < need {
		d := s.h.pop()
		if d.epoch() != s.epoch {
			// First time this entry surfaces in this selection:
			// refresh its key; if it no longer holds the minimum,
			// put it back and keep looking.
			d.setEpoch(s.epoch)
			k := s.keyFn(d, now)
			if k != d.key {
				d.key = k
				if len(s.h) > 0 && k > s.h[0].key {
					s.h.push(d)
					continue
				}
			}
		}
		victims = append(victims, d)
		free += s.entrySize(d)
	}
	s.victimBuf = victims
	return victims, true
}

// CostLoss returns l: the total cost loss Σ f(O)·m(O) of the greedy victim
// set that would be evicted to fit an object of the given size (paper
// §2.1). The store is not modified. ok is false when the object cannot fit
// even with an empty cache; a zero loss with ok=true means there is room
// (or the victims are all cost-free).
func (s *HeapStore) CostLoss(size int64, now float64) (loss float64, ok bool) {
	s.maybeSweep(now)
	victims, ok := s.selectVictims(size, now)
	if !ok {
		return math.Inf(1), false
	}
	for _, d := range victims {
		loss += d.CostLoss(now)
		s.h.push(d) // roll back
	}
	return loss, true
}

// Insert adds d to the store, evicting the greedy victim set first if
// needed. The evicted descriptors (detached from the store) are returned so
// the caller can demote them to a d-cache; the slice is the store's
// reusable scratch and is valid only until the next CostLoss, Evict or
// Insert on this store. ok is false — and the store unchanged — when the
// object cannot fit at all or is already present.
func (s *HeapStore) Insert(d *Descriptor, now float64) (evicted []*Descriptor, ok bool) {
	if s.idx.get(d.ID) != nil {
		return nil, false
	}
	size := s.entrySize(d)
	victims, ok := s.Evict(size, now)
	if !ok {
		return nil, false
	}
	s.idx.put(d)
	s.used += size
	d.key = s.keyFn(d, now)
	if s.unit && len(s.h) == cap(s.h) {
		s.growExact()
	}
	s.h.push(d)
	return victims, true
}

// Evict detaches the greedy victim set that an Insert of an entry of the
// given size would evict at now, and returns it: the same victims, in the
// same order, under the same final keys, so that an Insert which follows at
// the same now evicts nothing more. It lets a caller admit into a victim it
// re-initialises instead of into a fresh descriptor. The slice is the
// store's scratch, as Insert's is; ok is false, and nothing evicted, when
// the size exceeds the capacity.
func (s *HeapStore) Evict(size int64, now float64) (evicted []*Descriptor, ok bool) {
	s.maybeSweep(now)
	victims, ok := s.selectVictims(size, now)
	if !ok {
		return nil, false
	}
	for _, v := range victims {
		s.idx.del(v.ID)
		s.used -= s.entrySize(v)
	}
	return victims, true
}

// growExact enlarges a full heap of an entry-counted store, doubling as
// append would but never past the capacity: such a store holds at most
// capacity entries, so every slot beyond it would be slack for good.
func (s *HeapStore) growExact() {
	n := 2 * cap(s.h)
	if n < 8 {
		n = 8
	}
	if int64(n) > s.capacity {
		n = int(s.capacity)
	}
	h := make(descHeap, len(s.h), n)
	copy(h, s.h)
	s.h = h
}

// Remove detaches and returns the descriptor for id, or nil if absent.
func (s *HeapStore) Remove(id model.ObjectID) *Descriptor {
	d := s.idx.del(id)
	if d == nil {
		return nil
	}
	// Apply deferred re-keys first so a detached descriptor carries no
	// stale dirty state into another store (main cache ↔ d-cache moves).
	s.flushDirty()
	s.h.remove(int(d.heapIndex))
	s.used -= s.entrySize(d)
	return d
}

// MinKeyExcluding returns the smallest effective eviction key among stored
// entries other than id, and whether any such entry exists. Deferred
// re-keys are honoured (an entry's pending key counts), so the result is
// the key the entry would sort under after the next flush. It exists for
// the eviction-order audit: immediately after an insertion that evicted
// victims, every retained entry's key must be ≥ every victim's final key.
func (s *HeapStore) MinKeyExcluding(id model.ObjectID) (float64, bool) {
	best, found := 0.0, false
	for i := range s.h {
		if s.h[i].id == id {
			continue
		}
		if k := s.h[i].d.key; !found || k < best {
			best, found = k, true
		}
	}
	return best, found
}

// ForEach calls fn for every stored descriptor in heap-slot order, which
// the store's operations alone determine: two stores given the same
// operations visit the same sequence. fn must not modify the store.
func (s *HeapStore) ForEach(fn func(*Descriptor)) {
	for i := range s.h {
		fn(s.h[i].d)
	}
}

// checkInvariants panics if internal bookkeeping is inconsistent: the index
// (see index.check) and the heap holding the same entries, every slot
// mirroring its descriptor (its key only once no re-key is deferred), the
// heap property, and the capacity accounting. It is exercised by tests.
func (s *HeapStore) checkInvariants() {
	s.idx.check()
	if s.idx.n != len(s.h) {
		panic(fmt.Sprintf("cache: %d indexed entries but heap len %d", s.idx.n, len(s.h)))
	}
	var used int64
	for i := range s.h {
		sl := &s.h[i]
		used += s.entrySize(sl.d)
		if int(sl.d.heapIndex) != i || s.idx.get(sl.id) != sl.d {
			panic(fmt.Sprintf("cache: descriptor %d in slot %d has heap index %d or is not indexed", sl.d.ID, i, sl.d.heapIndex))
		}
		if (sl.key != sl.d.key && !sl.d.dirty()) || sl.id != sl.d.ID {
			panic(fmt.Sprintf("cache: slot %d holds (%v, %d) but its descriptor (%v, %d)",
				i, sl.key, sl.id, sl.d.key, sl.d.ID))
		}
		if i > 0 && slotLess(sl, &s.h[(i-1)/2]) {
			panic(fmt.Sprintf("cache: heap property violated between slot %d and its parent", i))
		}
	}
	if used != s.used {
		panic(fmt.Sprintf("cache: used=%d but entries sum to %d", s.used, used))
	}
	if s.used > s.capacity {
		panic(fmt.Sprintf("cache: used=%d exceeds capacity=%d", s.used, s.capacity))
	}
}

// slot is one heap element: the entry's sort key and ID by value beside the
// descriptor pointer, 24 bytes, so that sifting compares neighbouring slots
// without loading either descriptor (whose ID and key sit 80 bytes apart in
// a 96-byte object somewhere else in the Go heap, often on two cache lines).
type slot struct {
	key float64
	id  model.ObjectID
	d   *Descriptor
}

// slotLess is the eviction order: ascending key, ties broken by ascending
// ID. It is a strict total order over the entries of one store, so the
// sequence of minima a heap yields is fixed by the set of (key, ID) pairs
// alone — never by the heap's internal arrangement or by the order of the
// operations that built it. Replay determinism rests on that.
func slotLess(a, b *slot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// descHeap is a binary min-heap of slots under slotLess. A slot's key is a
// copy of d.key taken when the slot is written (push, fix, or the sweep's
// re-key); the store changes d.key of an attached entry only together with
// one of those, or in a deferred re-key that marks the entry dirty until
// flushDirty fixes its slot. Each descriptor's heapIndex tracks its slot,
// which bounds a store at 2³¹−1 entries.
//
// Sifting moves a hole instead of swapping: the displaced slot is held in
// a local while parents (or smaller children) slide into the hole, so each
// level costs one 24-byte copy and one heapIndex store.
type descHeap []slot

// up sifts sl toward the root from the hole at i.
func (h descHeap) up(i int, sl slot) {
	for i > 0 {
		p := (i - 1) / 2
		if !slotLess(&sl, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].d.heapIndex = int32(i)
		i = p
	}
	h[i] = sl
	sl.d.heapIndex = int32(i)
}

// down sifts sl toward the leaves from the hole at i.
func (h descHeap) down(i int, sl slot) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && slotLess(&h[r], &h[c]) {
			c = r
		}
		if !slotLess(&h[c], &sl) {
			break
		}
		h[i] = h[c]
		h[i].d.heapIndex = int32(i)
		i = c
	}
	h[i] = sl
	sl.d.heapIndex = int32(i)
}

// settle places sl, the only slot possibly out of order, starting from the
// hole at i.
func (h descHeap) settle(i int, sl slot) {
	if i > 0 && slotLess(&sl, &h[(i-1)/2]) {
		h.up(i, sl)
	} else {
		h.down(i, sl)
	}
}

// push adds d under its current key.
func (h *descHeap) push(d *Descriptor) {
	*h = append(*h, slot{})
	h.up(len(*h)-1, slot{key: d.key, id: d.ID, d: d})
}

// pop detaches and returns the minimum.
func (h *descHeap) pop() *Descriptor {
	return h.remove(0)
}

// remove detaches and returns the entry at i.
func (h *descHeap) remove(i int) *Descriptor {
	old := *h
	n := len(old) - 1
	d := old[i].d
	last := old[n]
	old[n] = slot{} // drop the pointer so the descriptor can be collected
	*h = old[:n]
	if i < n {
		(*h).settle(i, last)
	}
	d.heapIndex = -1
	return d
}

// fix re-reads the key of the entry at i from its descriptor and restores
// the heap order around it.
func (h descHeap) fix(i int) {
	sl := h[i]
	sl.key = sl.d.key
	h.settle(i, sl)
}

// init establishes the heap order over arbitrary slot contents.
func (h descHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}
