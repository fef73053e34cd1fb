package dcache

import (
	"math/rand"
	"slices"
	"testing"

	"cascade/internal/cache"
	"cascade/internal/model"
)

func desc(id model.ObjectID, times ...float64) *cache.Descriptor {
	d := cache.NewDescriptor(id, 1000)
	for _, t := range times {
		d.Window.Record(t)
	}
	return d
}

func TestPutGetTake(t *testing.T) {
	dc := New(2)
	if dc.Capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", dc.Capacity())
	}
	d1 := desc(1, 10)
	if !dc.Put(d1, 10) || dc.Len() != 1 {
		t.Fatal("put failed")
	}
	if dc.Get(1) != d1 || !dc.Contains(1) {
		t.Fatal("get failed")
	}
	if dc.Put(d1, 10) {
		t.Fatal("duplicate put accepted")
	}
	got := dc.Take(1)
	if got != d1 || dc.Len() != 0 || dc.Contains(1) {
		t.Fatal("take failed")
	}
	if dc.Take(1) != nil {
		t.Fatal("double take returned a descriptor")
	}
}

func TestLFUEviction(t *testing.T) {
	dc := New(2)
	// Descriptor 1 referenced thrice recently, descriptor 2 once long ago.
	dc.Put(desc(1, 700, 705, 710), 710)
	dc.Put(desc(2, 10), 710)
	if !dc.Put(desc(3, 709, 710), 710) {
		t.Fatal("put of third descriptor failed")
	}
	if dc.Contains(2) {
		t.Fatal("least frequent descriptor 2 survived")
	}
	if !dc.Contains(1) || !dc.Contains(3) || dc.Len() != 2 {
		t.Fatal("wrong survivors")
	}
}

func TestRecordAccessPromotes(t *testing.T) {
	dc := New(2)
	dc.Put(desc(1, 0), 0)
	dc.Put(desc(2, 0), 0)
	// Give 1 many fresh accesses so 2 is the LFU victim.
	for _, now := range []float64{650, 651, 652} {
		if dc.RecordAccess(1, now) != dc.Get(1) || dc.Get(1) == nil {
			t.Fatal("record access missed present descriptor")
		}
	}
	if dc.RecordAccess(99, 700) != nil {
		t.Fatal("record access claimed success on absent descriptor")
	}
	dc.Put(desc(3, 652), 652)
	if dc.Contains(2) || !dc.Contains(1) {
		t.Fatal("LFU after RecordAccess evicted the wrong descriptor")
	}
}

func TestSetMissPenalty(t *testing.T) {
	dc := New(1)
	dc.Put(desc(1, 5), 5)
	if !dc.SetMissPenalty(1, 3.5, 5) {
		t.Fatal("set miss penalty missed present descriptor")
	}
	if got := dc.Get(1).MissPenalty(); got != 3.5 {
		t.Fatalf("miss penalty = %v, want 3.5", got)
	}
	if dc.SetMissPenalty(2, 1, 5) {
		t.Fatal("set miss penalty claimed success on absent descriptor")
	}
}

func TestZeroCapacity(t *testing.T) {
	dc := New(0)
	if dc.Put(desc(1, 0), 0) {
		t.Fatal("zero-capacity d-cache accepted a descriptor")
	}
	if dc.Len() != 0 || dc.Contains(1) {
		t.Fatal("zero-capacity d-cache not empty")
	}
	neg := New(-3)
	if neg.Capacity() != 0 {
		t.Fatalf("negative capacity = %d, want clamped to 0", neg.Capacity())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	dc := New(5)
	for id := model.ObjectID(1); id <= 50; id++ {
		dc.Put(desc(id, float64(id)), float64(id))
		if dc.Len() > 5 {
			t.Fatalf("len %d exceeds capacity after inserting %d", dc.Len(), id)
		}
	}
	if dc.Len() != 5 {
		t.Fatalf("len = %d, want 5", dc.Len())
	}
}

// TestReuseVictimMatchesPut drives two d-caches of each implementation
// through the same random stream. One admits an unknown object as a fresh
// descriptor through Put, which evicts and recycles; the other through
// ReuseVictim, as engine.DownStep does, falling back to Put only when
// ReuseVictim declines. The victim sequence and every held descriptor's
// window, penalty and eviction key must agree after every step, and no Put
// on the second d-cache may evict: a full one always admits in place.
func TestReuseVictimMatchesPut(t *testing.T) {
	steps := []float64{0, 0, 0.5, 3, 40, 700}
	for name, factory := range map[string]Factory{"LFU": NewFactory, "LRUStacks": NewLRUStacksFactory} {
		for _, capacity := range []int{0, 1, 12} {
			put, reuse := factory(capacity), factory(capacity)
			var putVictims, reuseVictims, reusePutEvicted []model.ObjectID
			put.(Recycler).SetRecycler(func(d *cache.Descriptor) { putVictims = append(putVictims, d.ID) })
			reuse.(Recycler).SetRecycler(func(d *cache.Descriptor) { reusePutEvicted = append(reusePutEvicted, d.ID) })
			rng := rand.New(rand.NewSource(int64(capacity)))
			now := 0.0
			for op := 0; op < 20000; op++ {
				now += steps[rng.Intn(len(steps))]
				id, m := model.ObjectID(rng.Intn(60)), float64(rng.Intn(4))
				switch rng.Intn(5) {
				case 0:
					if (put.RecordAccess(id, now) == nil) != (reuse.RecordAccess(id, now) == nil) {
						t.Fatalf("%s/%d op %d: RecordAccess(%d) disagrees", name, capacity, op, id)
					}
				case 1:
					if (put.Take(id) == nil) != (reuse.Take(id) == nil) {
						t.Fatalf("%s/%d op %d: Take(%d) disagrees", name, capacity, op, id)
					}
				default:
					if put.SetMissPenalty(id, m, now) != reuse.SetMissPenalty(id, m, now) {
						t.Fatalf("%s/%d op %d: SetMissPenalty(%d) disagrees", name, capacity, op, id)
					}
					if put.Contains(id) {
						break
					}
					d := cache.NewDescriptor(id, 100)
					d.Window.Record(now)
					d.SetMissPenalty(m)
					put.Put(d, now)
					var held []model.ObjectID
					for o := model.ObjectID(0); o < 60; o++ {
						if reuse.Contains(o) {
							held = append(held, o)
						}
					}
					if reuse.ReuseVictim(id, 100, 3, m, now) {
						for _, o := range held {
							if !reuse.Contains(o) {
								reuseVictims = append(reuseVictims, o)
							}
						}
					} else {
						v := cache.NewDescriptor(id, 100)
						v.Window.Record(now)
						v.SetMissPenalty(m)
						reuse.Put(v, now)
					}
				}
				if !slices.Equal(putVictims, reuseVictims) || len(reusePutEvicted) != 0 {
					t.Fatalf("%s/%d op %d: Put evicted %v; ReuseVictim took %v, and Put evicted %v", name, capacity, op, putVictims, reuseVictims, reusePutEvicted)
				}
				if put.Len() != reuse.Len() {
					t.Fatalf("%s/%d op %d: %d descriptors against %d", name, capacity, op, put.Len(), reuse.Len())
				}
				for id := model.ObjectID(0); id < 60; id++ {
					a, b := put.Get(id), reuse.Get(id)
					if (a == nil) != (b == nil) {
						t.Fatalf("%s/%d op %d: object %d held by one d-cache only", name, capacity, op, id)
					}
					if a != nil && (a.MissPenalty() != b.MissPenalty() || a.EvictionKey() != b.EvictionKey() ||
						a.Freq(now) != b.Freq(now) || !slices.Equal(a.Window.Times(), b.Window.Times())) {
						t.Fatalf("%s/%d op %d: object %d differs: %v/%v vs %v/%v", name, capacity, op, id, a.Window.Times(), a.EvictionKey(), b.Window.Times(), b.EvictionKey())
					}
				}
			}
			if capacity > 0 && len(putVictims) < 100 {
				t.Fatalf("%s/%d: only %d evictions", name, capacity, len(putVictims))
			}
		}
	}
}
