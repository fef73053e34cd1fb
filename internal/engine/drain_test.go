package engine

import (
	"math"
	"testing"

	"cascade/internal/cache"
	"cascade/internal/model"
)

func drainNode(id model.NodeID, bytes int64, dEntries int) *Sharded {
	return NewSharded(ShardedConfig{Node: id, CacheBytes: bytes, DCacheEntries: dEntries})
}

func stock(t *testing.T, st *Sharded, id model.ObjectID, size int64, mp float64, times ...float64) {
	t.Helper()
	d := cache.NewDescriptor(id, size)
	for _, at := range times {
		d.Window.Record(at)
	}
	d.SetMissPenalty(mp)
	if _, ok := st.StoreAt(0).Insert(d, times[len(times)-1]); !ok {
		t.Fatalf("insert %d failed", id)
	}
}

func TestDrainDescriptorsOrderAndEmpty(t *testing.T) {
	st := drainNode(0, 1000, 8)
	// Higher miss penalty and frequency → higher NCL → drained later.
	stock(t, st, 1, 100, 5.0, 1, 2, 3)
	stock(t, st, 2, 100, 50.0, 1, 2, 3)
	stock(t, st, 3, 100, 0.5, 1, 2, 3)

	snaps := st.DrainDescriptors(4)
	if len(snaps) != 3 {
		t.Fatalf("drained %d snapshots, want 3", len(snaps))
	}
	if st.StoreLen() != 0 || st.Used() != 0 {
		t.Fatalf("store not emptied: len=%d used=%d", st.StoreLen(), st.Used())
	}
	want := []model.ObjectID{3, 1, 2} // ascending NCL
	for i, s := range snaps {
		if s.ID != want[i] {
			t.Fatalf("snapshot order = %v at %d, want %v", s.ID, i, want[i])
		}
	}
}

func TestDrainDescriptorsTieBreaksByID(t *testing.T) {
	st := drainNode(0, 1000, 8)
	stock(t, st, 7, 100, 2.0, 1, 2)
	stock(t, st, 4, 100, 2.0, 1, 2)
	snaps := st.DrainDescriptors(3)
	if len(snaps) != 2 || snaps[0].ID != 4 || snaps[1].ID != 7 {
		t.Fatalf("tie-break order = %v, want [4 7]", snaps)
	}
}

func TestAbsorbSkipsKnownObjects(t *testing.T) {
	child := drainNode(1, 1000, 8)
	stock(t, child, 1, 100, 1.0, 1, 2)
	stock(t, child, 2, 100, 1.0, 1, 2)
	stock(t, child, 3, 100, 1.0, 1, 2)

	parent := drainNode(0, 1000, 8)
	stock(t, parent, 1, 100, 9.0, 1, 2) // already in parent's store
	dTwo := cache.NewDescriptor(2, 100)
	dTwo.Window.Record(2)
	parent.DCacheAt(0).Put(dTwo, 2) // already in parent's d-cache

	snaps := child.DrainDescriptors(3)
	absorbed := parent.Absorb(snaps, 3)
	if absorbed != 1 {
		t.Fatalf("absorbed = %d, want 1 (only object 3 is new)", absorbed)
	}
	if !parent.DCacheContains(3) {
		t.Fatal("object 3 descriptor should land in the parent d-cache")
	}
	if got := parent.DCacheAt(0).Get(2); got == nil || got != dTwo {
		t.Fatal("existing parent descriptor must be preserved, not replaced")
	}
}

// TestRestorePathsRefuseInvalidSnapshots feeds every engine path that turns
// a snapshot back into a descriptor (a drained child's spill, a warm start)
// snapshots no node could have written; none may reach a store.
func TestRestorePathsRefuseInvalidSnapshots(t *testing.T) {
	bad := []cache.DescriptorSnapshot{
		{ID: 1, Size: -4096, MissPenalty: 1, AccessTimes: []float64{1}},
		{ID: 2, Size: 100, MissPenalty: math.NaN(), AccessTimes: []float64{1}},
		{ID: 3, Size: 100, MissPenalty: 1, AccessTimes: []float64{2, math.Inf(1)}},
		{ID: 4, Size: 100, MissPenalty: 1, AccessTimes: []float64{3, 1}},
		{ID: 5, Size: 100, MissPenalty: 1, AccessTimes: []float64{1}, WindowK: 99},
	}
	s := NewSharded(ShardedConfig{Shards: 2, CacheBytes: 1000, DCacheEntries: 8})
	if got := s.Absorb(bad, 5); got != 0 {
		t.Errorf("Sharded.Absorb took %d bad snapshots", got)
	}
	for _, snap := range bad {
		if s.RestoreInsert(snap, 5) {
			t.Errorf("Sharded.RestoreInsert took object %d", snap.ID)
		}
	}
	if s.Used() != 0 || s.StoreLen() != 0 {
		t.Errorf("after refused restores: used %d, %d entries", s.Used(), s.StoreLen())
	}
}

func TestAbsorbRespectsDCacheCapacity(t *testing.T) {
	child := drainNode(1, 1000, 8)
	for i := 1; i <= 5; i++ {
		stock(t, child, model.ObjectID(i), 100, float64(i), 1, 2)
	}
	parent := drainNode(0, 1000, 2)
	absorbed := parent.Absorb(child.DrainDescriptors(3), 3)
	if absorbed != 5 {
		t.Fatalf("absorbed = %d, want 5 (evictions still count)", absorbed)
	}
	if parent.DCacheLen() != 2 {
		t.Fatalf("parent d-cache len = %d, want capacity 2", parent.DCacheLen())
	}
}
