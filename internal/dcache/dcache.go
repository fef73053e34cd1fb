// Package dcache implements the paper's auxiliary descriptor cache (§2.4).
//
// Each node keeps, next to its main object cache, a small "d-cache" holding
// the descriptors (size, access history, miss penalty) of the most
// frequently accessed objects *not* stored in the main cache. Descriptors
// let a node evaluate the cost saving of caching an object it does not
// hold; by Theorem 2 only locally beneficial nodes matter, so descriptors
// of rarely accessed objects can safely be dropped. The d-cache is bounded
// by a descriptor count (its byte footprint is negligible next to the main
// cache) and managed with LFU replacement.
//
// Two implementations are provided, both from §2.4:
//
//   - New: LFU via a frequency-keyed heap (O(log n) per adjustment);
//   - newLRUStacks: the paper's O(1) alternative — one LRU stack per
//     reference count 𝒦; within a stack, ordering by recency coincides
//     with ordering by the sliding-window estimate, so the global LFU
//     victim is the minimum over the K stack tails.
//
// A node whose d-cache lacks the descriptor of a requested object tags the
// request; the deciding node excludes such nodes from the DP candidate set.
package dcache

import (
	"cascade/internal/cache"
	"cascade/internal/model"
)

// DCache is a bounded collection of object descriptors with
// least-frequently-used replacement. Implementations are not safe for
// concurrent use; each cache node owns one exclusively.
type DCache interface {
	// Capacity returns the maximum number of descriptors held.
	Capacity() int
	// Len returns the number of descriptors held.
	Len() int
	// Get returns the descriptor for id, or nil when the node has no
	// meta information about the object (the "special tag" case of
	// §2.4).
	Get(id model.ObjectID) *cache.Descriptor
	// Contains reports whether a descriptor for id is held.
	Contains(id model.ObjectID) bool
	// RecordAccess notes a reference to id at time now, refreshing its
	// frequency estimate and replacement position. It returns the
	// refreshed descriptor, or nil when none is held.
	RecordAccess(id model.ObjectID, now float64) *cache.Descriptor
	// SetMissPenalty updates the stored miss penalty for id, as driven
	// by the accumulated-cost variable carried in response messages
	// (§2.3). It reports whether the descriptor was present.
	SetMissPenalty(id model.ObjectID, m, now float64) bool
	// Put inserts a descriptor, evicting least-frequently-used
	// descriptors if full. ok is false when the descriptor was already
	// present or the d-cache has zero capacity.
	Put(desc *cache.Descriptor, now float64) (ok bool)
	// Take removes and returns the descriptor for id — used when the
	// object is promoted into the main cache, which then owns the
	// descriptor. It returns nil if absent.
	Take(id model.ObjectID) *cache.Descriptor
	// ReuseVictim admits id into a full d-cache in the descriptor a Put at
	// now would evict, Reset (window size k) to one reference at now and
	// miss penalty m: the d-cache ends as a Put of such a descriptor would
	// leave it, but no victim reaches the recycler. It returns false, and
	// changes nothing, when there is room, no capacity, or id is held.
	ReuseVictim(id model.ObjectID, size int64, k int, m, now float64) bool
}

// LFU is the heap-based d-cache implementation.
type LFU struct {
	store   *cache.HeapStore
	recycle func(*cache.Descriptor)
}

// New returns a heap-based LFU d-cache holding at most capacity
// descriptors. A zero or negative capacity yields a d-cache that stores
// nothing (every node is then always excluded from coordinated placement
// unless it already holds the object).
func New(capacity int) *LFU {
	return &LFU{store: cache.NewDescriptorLFU(int64(capacity))}
}

// Capacity implements DCache.
func (d *LFU) Capacity() int { return int(d.store.Capacity()) }

// Len implements DCache.
func (d *LFU) Len() int { return d.store.Len() }

// Get implements DCache.
func (d *LFU) Get(id model.ObjectID) *cache.Descriptor { return d.store.Get(id) }

// Contains implements DCache.
func (d *LFU) Contains(id model.ObjectID) bool { return d.store.Contains(id) }

// RecordAccess implements DCache.
func (d *LFU) RecordAccess(id model.ObjectID, now float64) *cache.Descriptor {
	return d.store.Touch(id, now)
}

// SetMissPenalty implements DCache.
func (d *LFU) SetMissPenalty(id model.ObjectID, m, now float64) bool {
	return d.store.SetMissPenalty(id, m, now)
}

// SetRecycler implements Recycler.
func (d *LFU) SetRecycler(fn func(*cache.Descriptor)) { d.recycle = fn }

// Put implements DCache.
func (d *LFU) Put(desc *cache.Descriptor, now float64) (ok bool) {
	evicted, ok := d.store.Insert(desc, now)
	if d.recycle != nil {
		for _, v := range evicted {
			d.recycle(v)
		}
	}
	return ok
}

// Take implements DCache.
func (d *LFU) Take(id model.ObjectID) *cache.Descriptor { return d.store.Remove(id) }

// ReuseVictim implements DCache: the store counts entries, so the reused
// victim is the only one.
func (d *LFU) ReuseVictim(id model.ObjectID, size int64, k int, m, now float64) bool {
	return d.store.Reuse(id, size, k, m, now)
}

// Recycler is implemented by d-caches that can hand evicted descriptors to
// a reuse pool instead of dropping them to the garbage collector. Both
// built-in implementations satisfy it.
type Recycler interface {
	// SetRecycler registers fn to receive every descriptor the d-cache
	// evicts. Pass nil to disable recycling.
	SetRecycler(fn func(*cache.Descriptor))
}

// Factory builds a d-cache of a given capacity; schemes accept one to
// select the implementation (New by default, NewLRUStacksFactory for the O(1)
// variant).
type Factory func(capacity int) DCache

// NewFactory is the default heap-based LFU factory.
func NewFactory(capacity int) DCache { return New(capacity) }

// NewLRUStacksFactory builds LRU-stack d-caches.
func NewLRUStacksFactory(capacity int) DCache { return newLRUStacks(capacity) }
