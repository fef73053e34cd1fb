// Package cache implements the per-node object stores used by all caching
// schemes in the paper:
//
//   - HeapStore — a capacity-bounded store whose eviction order is driven by
//     one of two keys over object descriptors. With the normalized
//     cost loss key NCL(O) = f(O)·m(O)/s(O) it is the cost-aware main cache
//     of the coordinated and LNC-R schemes (paper §2.1/§2.4); with the plain
//     frequency key it is an LFU store (used by the d-cache and the LFU
//     baseline). Its heap keeps each entry's key and ID inline in 24-byte
//     slots, its ID index is a tombstone-free table of 16-byte slots, and
//     its descriptors are 96 bytes; TestDescriptorLayout pins the sizes.
//   - LRU — the classic least-recently-used store used by the LRU and
//     MODULO baselines.
//   - GreedyDualSize — the GDS baseline from the related-work lineage.
//
// All stores are single-owner (one per cache node) and not safe for
// concurrent use.
package cache

import (
	"cascade/internal/freq"
	"cascade/internal/model"
)

// Descriptor is the paper's per-object meta information: identity, size,
// sliding-window access history and miss penalty with respect to the owning
// node. A descriptor lives either in a node's main cache (object present) or
// in its d-cache (object absent, descriptor retained for frequency and
// penalty estimation) — never both.
type Descriptor struct {
	ID   model.ObjectID
	Size int64

	// Gen is the generation of the cached copy this descriptor describes
	// (coherency): the origin generation of the object at the time the
	// body was fetched. Zero means "never validated" — the pre-coherency
	// state every copy starts in. Maintained by the engine; d-cache
	// descriptors keep the generation of the last copy held so the node
	// can stamp it on piggyback candidates.
	Gen uint64

	// Window records recent reference times and produces the frequency
	// estimate f(O).
	Window freq.Window

	missPenalty float64

	// heap bookkeeping, owned by the containing store. key is the entry's
	// effective eviction key. The heap slot holds a copy, which lags behind
	// key while a re-key is deferred (the dirty bit is set) and equals it
	// otherwise; key stays here too so a detached victim still answers
	// EvictionKey. heapIndex and mark share one word: with the 48-byte
	// Window that makes the descriptor exactly 96 bytes, an allocator size
	// class of its own — one more word and it occupies 112
	// (TestDescriptorLayout).
	key       float64
	heapIndex int32  // position in the store's heap, -1 when detached
	mark      uint32 // dirtyBit | selection epoch (see HeapStore.nextEpoch)
}

// mark layout: the top bit says a heap repair for the entry is pending, the
// other 31 hold the epoch of the last victim selection it surfaced in.
const (
	dirtyBit  = 1 << 31
	epochMask = dirtyBit - 1
)

func (d *Descriptor) dirty() bool       { return d.mark&dirtyBit != 0 }
func (d *Descriptor) epoch() uint32     { return d.mark & epochMask }
func (d *Descriptor) setEpoch(e uint32) { d.mark = d.mark&dirtyBit | e }

// NewDescriptor returns a descriptor for the given object with the paper's
// default sliding-window parameters and a zero miss penalty.
func NewDescriptor(id model.ObjectID, size int64) *Descriptor {
	return NewDescriptorK(id, size, freq.DefaultK)
}

// NewDescriptorK returns a descriptor whose sliding window records up to k
// reference times (the paper's default is 3; see freq.NewWindow for
// clamping).
func NewDescriptorK(id model.ObjectID, size int64, k int) *Descriptor {
	return &Descriptor{
		ID:        id,
		Size:      size,
		Window:    freq.NewWindow(k),
		heapIndex: -1,
	}
}

// Reset reinitializes a recycled descriptor with a new identity, clearing
// the access history, miss penalty and store bookkeeping. The window keeps
// its overflow ring, so recycling a K > 3 descriptor allocates nothing.
// Call only on descriptors detached from every store.
func (d *Descriptor) Reset(id model.ObjectID, size int64, k int) {
	// Field by field: copying the whole struct out and back costs two
	// 96-byte block moves on the path a full d-cache admits through.
	d.Window.Reset(k)
	d.ID, d.Size, d.Gen = id, size, 0
	d.missPenalty, d.key, d.heapIndex, d.mark = 0, 0, -1, 0
}

// MissPenalty returns m(O): the additional cost of accessing the object
// when it is not cached at the owning node (distance to the nearest
// upstream copy, maintained by the response-message counter of §2.3).
func (d *Descriptor) MissPenalty() float64 { return d.missPenalty }

// SetMissPenalty sets m(O) directly. Use only while the descriptor is not
// held by a HeapStore — stores must re-key on penalty changes, which their
// own SetMissPenalty method does.
func (d *Descriptor) SetMissPenalty(v float64) { d.missPenalty = v }

// Freq returns the access-frequency estimate f(O) at time now.
func (d *Descriptor) Freq(now float64) float64 { return d.Window.Estimate(now) }

// NCL returns the normalized cost loss f(O)·m(O)/s(O) at time now — the
// cost loss incurred per unit of space freed by evicting the object.
func (d *Descriptor) NCL(now float64) float64 {
	if d.Size <= 0 {
		return 0
	}
	return d.Window.Estimate(now) * d.missPenalty / float64(d.Size)
}

// CostLoss returns f(O)·m(O) at time now — the total cost loss of evicting
// the object.
func (d *Descriptor) CostLoss(now float64) float64 {
	return d.Window.Estimate(now) * d.missPenalty
}

// InStore reports whether the descriptor currently belongs to some
// HeapStore.
func (d *Descriptor) InStore() bool { return d.heapIndex >= 0 }

// EvictionKey returns the store-maintained eviction key the descriptor last
// sorted under, including any re-key deferred by the lazy repair machinery.
// For a victim just returned by HeapStore.Insert this is the final key it
// was selected at — the value the eviction-order audit compares.
func (d *Descriptor) EvictionKey() float64 { return d.key }
