package cache

import (
	"math/bits"
	"math/rand/v2"

	"cascade/internal/model"
)

// index finds a store's descriptor by object ID: an open-addressing table
// of 16-byte {id, descriptor} slots, power-of-two sized, probed linearly.
// A probe that hits reads one slot, usually one cache line; a probe that
// misses stops at the first empty slot.
//
// Deletion shifts the rest of the probe cluster back instead of leaving a
// tombstone, so a table churned at a constant population — every d-cache
// stripe, on every admission — keeps the size it first grew to and its
// probe lengths. The table grows by doubling when an insert would take it
// past ¾ load, on demand only: an entry-counted store never grows past the
// size that holds its capacity, and a store that never fills never
// allocates that size.
//
// The hash is seeded per table (gateway object IDs come from client URLs,
// so a fixed hash could be driven into one long cluster) and mixes every
// bit of the ID into the slot position: the IDs one shard of an
// engine.Sharded node owns share the top bits of their Fibonacci hash, so
// positions taken from those bits would all collide. Nothing observable
// depends on the seed — no walk over a store follows the table.
type index struct {
	slots []indexSlot
	n     int    // occupied slots
	shift uint   // 64 − log2(len(slots)); the hash keeps the top bits
	seed  uint64 // per-table hash seed
}

// indexSlot is one table entry; d == nil marks it empty.
type indexSlot struct {
	id model.ObjectID
	d  *Descriptor
}

// minIndexSlots is the table's first size (six entries before it doubles).
const minIndexSlots = 8

func newIndex() index { return index{seed: rand.Uint64()} }

// home is id's preferred slot: the top bits of a seeded xor-shift-multiply
// mix. The xor-shift folds the ID's high half into its low half before the
// multiply carries every bit upward, and the multiplier is not the
// Fibonacci constant engine.Sharded.ShardOf uses.
func (x *index) home(id model.ObjectID) int {
	h := uint64(id) ^ x.seed
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return int(h >> x.shift)
}

// get returns the descriptor for id, or nil.
func (x *index) get(id model.ObjectID) *Descriptor {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.d == nil {
			return nil
		}
		if sl.id == id {
			return sl.d
		}
	}
}

// put adds d under d.ID, which must be absent.
func (x *index) put(d *Descriptor) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	x.place(indexSlot{id: d.ID, d: d})
	x.n++
}

// place writes sl into the first empty slot from its home on.
func (x *index) place(sl indexSlot) {
	mask := len(x.slots) - 1
	i := x.home(sl.id)
	for x.slots[i].d != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = sl
}

// del removes id and returns its descriptor, or nil if absent. It closes
// the gap by shifting back every later entry of the cluster that may move:
// one whose home is not cyclically after the gap.
func (x *index) del(id model.ObjectID) *Descriptor {
	if x.n == 0 {
		return nil
	}
	mask := len(x.slots) - 1
	i := x.home(id)
	for x.slots[i].d != nil && x.slots[i].id != id {
		i = (i + 1) & mask
	}
	d := x.slots[i].d
	if d == nil {
		return nil
	}
	for j := (i + 1) & mask; x.slots[j].d != nil; j = (j + 1) & mask {
		// The entry at j is (j − home) slots past its home and the gap
		// (j − i) slots behind it; it may fill the gap unless that would
		// put it before its home.
		if (j-x.home(x.slots[j].id))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
	return d
}

// grow doubles the table (or allocates the first one) and reinserts every
// entry.
func (x *index) grow() {
	size := 2 * len(x.slots)
	if size < minIndexSlots {
		size = minIndexSlots
	}
	old := x.slots
	x.slots = make([]indexSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, sl := range old {
		if sl.d != nil {
			x.place(sl)
		}
	}
}

// check panics unless the table is consistent: the count matches the
// occupied slots, the load is at most ¾, and every entry is reachable from
// its home without crossing an empty slot (what backward-shift deletion
// maintains and a tombstone-free probe relies on).
func (x *index) check() {
	mask := len(x.slots) - 1
	n := 0
	for i, sl := range x.slots {
		if sl.d == nil {
			continue
		}
		n++
		if sl.d.ID != sl.id {
			panic("cache: index slot id differs from its descriptor's")
		}
		for j := x.home(sl.id); j != i; j = (j + 1) & mask {
			if x.slots[j].d == nil {
				panic("cache: index entry unreachable from its home slot")
			}
		}
	}
	if n != x.n || 4*x.n > 3*len(x.slots) {
		panic("cache: index count or load inconsistent")
	}
}
