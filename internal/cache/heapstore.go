package cache

import (
	"fmt"
	"math"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// keyKind selects a store's eviction key; the store evicts ascending by key.
type keyKind uint8

const (
	// nclKey is the normalized cost loss of the paper: f(O)·m(O)/s(O).
	nclKey keyKind = iota
	// freqKey is the frequency estimate f(O) alone, yielding LFU behaviour.
	freqKey
)

// HeapStore is a capacity-bounded object store whose eviction order follows
// an eviction key, maintained in a binary min-heap as suggested in paper
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
// Re-keying is lazy: Touch, SetMissPenalty and CostLoss compute the entry's
// new key immediately (so it reflects the update-time estimate) but defer
// the O(log m) heap repair until the next victim selection, coalescing
// repeated updates of hot entries between evictions into one sift. Because
// the heap ordering is a strict total order (key, then ID), the victim
// sequence after a flush is identical to eager repair — replay determinism
// is unaffected, and an insertion may take the root slot of its last victim
// instead of popping the victim and pushing itself.
type HeapStore struct {
	capacity  int64
	used      int64
	unit      bool // capacity counted in entries instead of bytes
	kind      keyKind
	idx       index // finds an entry by ID; h owns every walk over entries
	h         descHeap
	epoch     uint32  // current victim selection, 1 … epochMask
	aging     float64 // full re-key sweep interval (seconds)
	lastSweep float64

	dirty     []*Descriptor // entries with a deferred heap repair
	victimBuf []*Descriptor // scratch for evict, reused per call
}

// NewCostAware returns a byte-capacity store with NCL eviction — the main
// cache of the coordinated and LNC-R schemes.
func NewCostAware(capacity int64) *HeapStore {
	return newHeapStore(capacity, false, nclKey)
}

// NewLFU returns a byte-capacity store with least-frequently-used eviction.
func NewLFU(capacity int64) *HeapStore {
	return newHeapStore(capacity, false, freqKey)
}

// NewDescriptorLFU returns an entry-capacity LFU store, as used by the
// d-cache to hold descriptors of objects absent from the main cache.
func NewDescriptorLFU(capacity int64) *HeapStore {
	return newHeapStore(capacity, true, freqKey)
}

func newHeapStore(capacity int64, unit bool, kind keyKind) *HeapStore {
	if capacity < 0 {
		capacity = 0
	}
	return &HeapStore{
		capacity: capacity,
		unit:     unit,
		kind:     kind,
		idx:      newIndex(),
		aging:    freq.DefaultRefreshInterval,
	}
}

// rate returns d's eviction key at now and f·m, its cost loss, from one
// frequency estimate, bit for bit what Descriptor.NCL (or Freq) and CostLoss
// return. An NCL entry of size ≤ 0 has key 0 and takes no estimate: fm NaN.
func (s *HeapStore) rate(d *Descriptor, now float64) (key, fm float64) {
	if s.kind == nclKey && d.Size <= 0 {
		return 0, math.NaN()
	}
	f := d.Window.Estimate(now)
	fm = f * d.missPenalty
	if s.kind == freqKey {
		return f, fm
	}
	return fm / float64(d.Size), fm
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
		sl.key, _ = s.rate(sl.d, now)
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
// eviction order. It returns the descriptor, nil when absent.
func (s *HeapStore) Touch(id model.ObjectID, now float64) *Descriptor {
	s.maybeSweep(now)
	d := s.idx.get(id)
	if d != nil {
		s.TouchEntry(d, now)
	}
	return d
}

// TouchEntry is Touch of d, an entry of this store already found with Get.
func (s *HeapStore) TouchEntry(d *Descriptor, now float64) {
	s.maybeSweep(now)
	d.Window.Record(now)
	s.rekey(d, now)
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
	k, _ := s.rate(d, now)
	s.setKey(d, k)
}

// setKey defers the repair that makes d sort under k (see rekey).
func (s *HeapStore) setKey(d *Descriptor, k float64) {
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

func (s *HeapStore) entrySize(size int64) int64 {
	if s.unit {
		return 1
	}
	return size
}

// evict detaches the greedy victim set for an entry of size need: ascending
// keys until free ≥ need, each stale minimum re-keyed in the root slot as it
// surfaces. All but the last are popped; the last keeps the root slot for
// admit, so it and the admission share one sift. The slice is scratch, valid
// until the next Insert or Reuse; nil, false when need exceeds capacity.
func (s *HeapStore) evict(need int64, now float64) ([]*Descriptor, bool) {
	s.maybeSweep(now)
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
	for {
		d := s.h[0].d
		if d.epoch() != s.epoch {
			// First time this entry surfaces in this selection: refresh
			// its key; if it no longer holds the minimum (a child's key is
			// lower), sift it down and keep looking.
			d.setEpoch(s.epoch)
			if k, _ := s.rate(d, now); k != d.key {
				d.key = k
				if n := len(s.h); n > 1 && k > s.h[1].key || n > 2 && k > s.h[2].key {
					s.h.fix(0)
					continue
				}
			}
		}
		victims = append(victims, d)
		s.idx.del(d.ID)
		size := s.entrySize(d.Size)
		s.used -= size
		if free += size; free >= need {
			break
		}
		s.h.remove(0)
	}
	s.victimBuf = victims
	return victims, true
}

// admit adds d under its key at now, into the root slot evict left its last
// victim in, or else at the end of the heap.
func (s *HeapStore) admit(d *Descriptor, now float64, intoRoot bool) {
	s.idx.put(d)
	s.used += s.entrySize(d.Size)
	d.key, _ = s.rate(d, now)
	if intoRoot {
		s.h[0].d.heapIndex = -1
		s.h.down(0, slot{key: d.key, id: d.ID, d: d})
		return
	}
	if s.unit && len(s.h) == cap(s.h) {
		s.growExact()
	}
	s.h.push(d)
}

// CostLoss returns l: the total cost loss Σ f(O)·m(O) of the greedy victim
// set that would be evicted to fit an object of the given size (paper
// §2.1). ok is false when the object cannot fit even with an empty cache; a
// zero loss with ok=true means there is room (or the victims are all
// cost-free). No slot moves: it visits entries in eviction order over a
// frontier of slot positions and refreshes each minimum that surfaces as a
// selection would, a changed key becoming a deferred re-key (see rekey).
// No descriptor but a surfaced one is read or written.
func (s *HeapStore) CostLoss(size int64, now float64) (loss float64, ok bool) {
	s.maybeSweep(now)
	if size > s.capacity {
		return math.Inf(1), false
	}
	free := s.capacity - s.used
	if free >= size {
		return 0, true
	}
	s.flushDirty()
	// The frontier holds the slot of every remaining entry whose parent has
	// surfaced, so the next minimum is on it; ^i marks an entry whose refresh
	// raised its key above the rest. Past 31 victims, buf outgrows the stack.
	var buf [32]int32
	front := append(buf[:0], 0)
	for {
		b := s.frontMin(front, -1)
		i, fm := front[b], math.NaN()
		if i >= 0 {
			// First surfacing: the children join, and the entry is refreshed.
			for c := 2*i + 1; c <= 2*i+2 && int(c) < len(s.h); c++ {
				front = append(front, c)
			}
			var k float64
			k, fm = s.rate(s.h[i].d, now)
			if k != s.h[i].key {
				s.setKey(s.h[i].d, k)
				if r := s.frontMin(front, b); r >= 0 && k > s.frontSlot(front[r]).key {
					front[b] = ^i
					continue
				}
			}
		} else {
			i = ^i // raised: f·m reads the estimate its refresh fixed at now
		}
		d := s.h[i].d
		if math.IsNaN(fm) {
			fm = d.CostLoss(now)
		}
		loss += fm
		if free += s.entrySize(d.Size); free >= size {
			return loss, true
		}
		front[b] = front[len(front)-1]
		front = front[:len(front)-1]
	}
}

// frontMin returns the position on CostLoss's frontier of the entry that
// sorts first, leaving out position skip; -1 when there is none.
func (s *HeapStore) frontMin(front []int32, skip int) int {
	b, least := -1, slot{}
	for j, e := range front {
		if sl := s.frontSlot(e); j != skip && (b < 0 || slotLess(&sl, &least)) {
			b, least = j, sl
		}
	}
	return b
}

// frontSlot is the slot a frontier entry sorts under: the heap's, with the
// refreshed key for a raised entry.
func (s *HeapStore) frontSlot(e int32) slot {
	if e >= 0 {
		return s.h[e]
	}
	sl := s.h[^e]
	sl.key = sl.d.key
	return sl
}

// Insert adds d to the store, evicting the greedy victim set first if
// needed. The evicted descriptors (detached from the store) are returned so
// the caller can demote them to a d-cache; the slice is the store's
// reusable scratch and is valid only until the next Insert or Reuse on this
// store. ok is false — and the store unchanged — when the object cannot fit
// at all or is already present.
func (s *HeapStore) Insert(d *Descriptor, now float64) (evicted []*Descriptor, ok bool) {
	if s.idx.get(d.ID) != nil {
		return nil, false
	}
	victims, ok := s.evict(s.entrySize(d.Size), now)
	if !ok {
		return nil, false
	}
	s.admit(d, now, len(victims) > 0)
	return victims, true
}

// Reuse admits id into a full store in its last victim's descriptor, Reset
// with window size k, given one reference at now and miss penalty m: the
// store ends as Inserting such a fresh descriptor would leave it, other
// victims (none in an entry-counted store) dropped. It reports false, and
// evicts nothing, when there is room, the entry cannot fit, or id is present.
func (s *HeapStore) Reuse(id model.ObjectID, size int64, k int, m, now float64) bool {
	if s.idx.get(id) != nil {
		return false
	}
	victims, _ := s.evict(s.entrySize(size), now)
	if len(victims) == 0 {
		return false
	}
	d := victims[len(victims)-1]
	d.Reset(id, size, k)
	d.Window.Record(now)
	d.missPenalty = m
	s.admit(d, now, true)
	return true
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
	s.used -= s.entrySize(d.Size)
	return d
}

// MinKeyExcluding returns the smallest effective eviction key among stored
// entries other than id, and whether any such entry exists. Deferred
// re-keys are honoured (an entry's pending key counts), so the result is
// the key the entry would sort under after the next flush. It exists for
// the eviction-order audit: immediately after an insertion that evicted
// victims, every retained entry's key must be ≥ every victim's final key.
// Such an insertion leaves no re-key pending; then the answer is in the
// root's slot or a child's, and only a pending re-key makes it read them all.
func (s *HeapStore) MinKeyExcluding(id model.ObjectID) (float64, bool) {
	n, pending := len(s.h), len(s.dirty) > 0
	if !pending {
		n = min(n, 3)
	}
	best, found := 0.0, false
	for i := 0; i < n; i++ {
		k := s.h[i].key
		if pending {
			k = s.h[i].d.key
		}
		if s.h[i].id != id && (!found || k < best) {
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
		used += s.entrySize(sl.d.Size)
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
// copy of d.key taken when the slot is written (push, fix, admit, or the
// sweep's re-key); the store changes d.key of an attached entry only together with
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
