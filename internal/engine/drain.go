package engine

import (
	"sort"

	"cascade/internal/cache"
)

// DrainDescriptors empties the node's main cache for a cooperative
// departure, returning serializable snapshots of every stored descriptor in
// NCL eviction order (ascending normalized cost loss at now, ties broken by
// object ID). The order matters: the parent absorbs the spill in the same
// sequence every incarnation produces, so its d-cache evicts identically
// whether the drain happened in the replay scheme, the cluster, or a
// gateway chain.
//
// The caller is responsible for discarding the node's d-cache (a departing
// node keeps no meta state) and for delivering the snapshots to the parent
// via Absorb.
func (st *NodeState) DrainDescriptors(now float64) []cache.DescriptorSnapshot {
	var ds []*cache.Descriptor
	st.Store.ForEach(func(d *cache.Descriptor) { ds = append(ds, d) })
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
		st.Store.Remove(d.ID)
	}
	return snaps
}

// Absorb folds a departing child's spilled descriptors into this node's
// d-cache, in the order DrainDescriptors produced them. Objects whose
// descriptor is already known here — in the main cache or the d-cache —
// are skipped: the local view has fresher access history for them. So are
// snapshots cache.RestoreDescriptor refuses. It reports how many
// descriptors were absorbed (the d-cache may evict some again immediately;
// those still count as absorbed).
func (st *NodeState) Absorb(snaps []cache.DescriptorSnapshot, now float64) int {
	absorbed := 0
	for _, snap := range snaps {
		if st.Store.Contains(snap.ID) || st.DCache.Contains(snap.ID) {
			continue
		}
		if d, err := cache.RestoreDescriptor(snap); err == nil && st.DCache.Put(d, now) {
			absorbed++
		}
	}
	return absorbed
}
