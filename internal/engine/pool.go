package engine

import (
	"cascade/internal/cache"
	"cascade/internal/dcache"
	"cascade/internal/model"
)

// DescPool recycles descriptors the d-caches evict, eliminating the
// per-request descriptor allocation on the hot path. A hop that passes an
// unknown object through a full d-cache needs no pool: it reuses the
// d-cache's own victim (DownStepUnder). The pool holds what the other
// evictions free — main-cache victims demoted into a full d-cache — and
// serves admissions into a d-cache that still has room and descriptors
// rebuilt for placement or promotion. Recycling is invisible to protocol
// results — Reset clears all history and nothing orders on descriptor
// identity. A pool is not safe for concurrent use: each shard of a pooled
// node owns one, touched only under the shard lock (ShardedConfig.Pooled).
type DescPool struct {
	free []*cache.Descriptor
}

// Recycle accepts an evicted descriptor for reuse.
func (p *DescPool) Recycle(d *cache.Descriptor) { p.free = append(p.free, d) }

// Len returns the number of descriptors waiting for reuse.
func (p *DescPool) Len() int { return len(p.free) }

// Get returns a descriptor for the given object, reusing a recycled one
// when available.
func (p *DescPool) Get(id model.ObjectID, size int64, k int) *cache.Descriptor {
	if n := len(p.free) - 1; n >= 0 {
		d := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		d.Reset(id, size, k)
		return d
	}
	return cache.NewDescriptorK(id, size, k)
}

// Attach registers the pool as the d-cache's eviction recycler.
func (p *DescPool) Attach(dc dcache.DCache) {
	if r, ok := dc.(dcache.Recycler); ok {
		r.SetRecycler(p.Recycle)
	}
}
