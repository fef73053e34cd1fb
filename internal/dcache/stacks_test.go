package dcache

import (
	"math/rand"
	"testing"

	"cascade/internal/cache"
	"cascade/internal/model"
)

// implementations under test.
func impls(capacity int) map[string]DCache {
	return map[string]DCache{
		"LFU":       New(capacity),
		"LRUStacks": newLRUStacks(capacity),
	}
}

func TestDCacheInterfaceContract(t *testing.T) {
	for name, dc := range impls(2) {
		t.Run(name, func(t *testing.T) {
			if dc.Capacity() != 2 || dc.Len() != 0 {
				t.Fatal("fresh d-cache state wrong")
			}
			d1 := desc(1, 10)
			if !dc.Put(d1, 10) {
				t.Fatal("put failed")
			}
			if dc.Put(d1, 10) {
				t.Fatal("duplicate put accepted")
			}
			if dc.Get(1) != d1 || !dc.Contains(1) || dc.Len() != 1 {
				t.Fatal("lookup failed")
			}
			if !dc.SetMissPenalty(1, 2.5, 10) || d1.MissPenalty() != 2.5 {
				t.Fatal("set miss penalty failed")
			}
			if dc.SetMissPenalty(9, 1, 10) {
				t.Fatal("set miss penalty on absent succeeded")
			}
			if dc.RecordAccess(1, 11) != d1 {
				t.Fatal("record access failed")
			}
			if dc.RecordAccess(9, 11) != nil {
				t.Fatal("record access on absent succeeded")
			}
			if dc.Take(1) != d1 || dc.Len() != 0 || dc.Take(1) != nil {
				t.Fatal("take failed")
			}
		})
	}
}

func TestDCacheCapacityEnforced(t *testing.T) {
	for name, dc := range impls(5) {
		t.Run(name, func(t *testing.T) {
			for id := model.ObjectID(1); id <= 40; id++ {
				dc.Put(desc(id, float64(id)), float64(id))
				if dc.Len() > 5 {
					t.Fatalf("len %d over capacity", dc.Len())
				}
			}
			if dc.Len() != 5 {
				t.Fatalf("len = %d, want 5", dc.Len())
			}
		})
	}
}

func TestDCacheZeroCapacityBoth(t *testing.T) {
	for name, dc := range impls(0) {
		t.Run(name, func(t *testing.T) {
			if dc.Put(desc(1, 0), 0) {
				t.Fatal("zero-capacity put accepted")
			}
		})
	}
}

func TestLRUStacksEvictsLeastFrequent(t *testing.T) {
	dc := newLRUStacks(3)
	// Object 1: three recent accesses (stack 3, hot).
	dc.Put(desc(1, 700, 705, 710), 710)
	// Object 2: one ancient access (stack 1, cold).
	dc.Put(desc(2, 10), 710)
	// Object 3: two accesses (stack 2, middling).
	dc.Put(desc(3, 700, 710), 710)
	// Inserting object 4 must evict object 2.
	if !dc.Put(desc(4, 710), 710) {
		t.Fatal("put failed")
	}
	if dc.Contains(2) || !dc.Contains(1) || !dc.Contains(3) || !dc.Contains(4) {
		t.Fatal("LRU-stacks evicted the wrong descriptor")
	}
}

func TestLRUStacksPromotionAcrossStacks(t *testing.T) {
	dc := newLRUStacks(10)
	d := desc(1, 0) // one access → stack 0
	dc.Put(d, 0)
	dc.RecordAccess(1, 5)  // two accesses → stack 1
	dc.RecordAccess(1, 10) // three → stack 2
	dc.RecordAccess(1, 15) // stays in stack 2 (window full)
	e := dc.entries[1]
	if e.stack != 2 {
		t.Fatalf("entry in stack %d, want 2", e.stack)
	}
	if dc.stacks[0].Len() != 0 || dc.stacks[1].Len() != 0 || dc.stacks[2].Len() != 1 {
		t.Fatal("stack occupancy wrong after promotions")
	}
}

func TestLRUStacksWithinStackRecencyOrder(t *testing.T) {
	dc := newLRUStacks(10)
	dc.Put(desc(1, 100), 100)
	dc.Put(desc(2, 200), 200)
	dc.Put(desc(3, 300), 300)
	// All in stack 0; tail must be the oldest (object 1).
	tail := dc.stacks[0].Back().Value.(*stackEntry)
	if tail.desc.ID != 1 {
		t.Fatalf("stack tail = %d, want 1", tail.desc.ID)
	}
	// Re-access 1 → moves to front; new tail is 2.
	dc.RecordAccess(1, 400)
	if dc.entries[1].stack != 1 {
		t.Fatal("re-accessed entry did not promote")
	}
	tail = dc.stacks[0].Back().Value.(*stackEntry)
	if tail.desc.ID != 2 {
		t.Fatalf("stack tail = %d, want 2", tail.desc.ID)
	}
}

// TestLRUStacksApproximatesLFU runs an identical random workload through
// both implementations and requires their retained sets to overlap
// substantially — the stacks are the paper's O(1) approximation of the
// heap's exact LFU order.
func TestLRUStacksApproximatesLFU(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	lfu, stacks := New(50), newLRUStacks(50)
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += r.Float64()
		// Zipf-ish skew over 200 objects.
		id := model.ObjectID(1 + int(float64(200)*r.Float64()*r.Float64()))
		for _, dc := range []DCache{lfu, stacks} {
			if dc.Contains(id) {
				dc.RecordAccess(id, now)
			} else {
				d := cache.NewDescriptor(id, 1000)
				d.Window.Record(now)
				dc.Put(d, now)
			}
		}
	}
	common := 0
	for id := model.ObjectID(0); id <= 200; id++ {
		if lfu.Contains(id) && stacks.Contains(id) {
			common++
		}
	}
	if lfu.Len() != 50 || stacks.Len() != 50 {
		t.Fatalf("lens: lfu=%d stacks=%d", lfu.Len(), stacks.Len())
	}
	if common < 35 { // ≥70% agreement
		t.Fatalf("implementations diverged: only %d/50 common survivors", common)
	}
}

func TestFactories(t *testing.T) {
	if _, ok := NewFactory(3).(*LFU); !ok {
		t.Fatal("NewFactory did not build an LFU")
	}
	if _, ok := NewLRUStacksFactory(3).(*LRUStacks); !ok {
		t.Fatal("NewLRUStacksFactory did not build LRUStacks")
	}
	if newLRUStacks(-1).Capacity() != 0 {
		t.Fatal("negative capacity not clamped")
	}
}

func BenchmarkDCacheImplementations(b *testing.B) {
	for name, mk := range map[string]Factory{"LFU": NewFactory, "LRUStacks": NewLRUStacksFactory} {
		b.Run(name, func(b *testing.B) {
			dc := mk(1000)
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now := float64(i)
				id := model.ObjectID(r.Intn(5000))
				if dc.Contains(id) {
					dc.RecordAccess(id, now)
				} else {
					d := cache.NewDescriptor(id, 1000)
					d.Window.Record(now)
					dc.Put(d, now)
				}
			}
		})
	}
}
