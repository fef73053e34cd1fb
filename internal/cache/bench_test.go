package cache

import (
	"testing"

	"cascade/internal/model"
)

// BenchmarkHeapstoreEvict measures the steady-state insert-with-eviction
// cycle: the store is kept full, so every insert takes its victim's root
// slot, exercising the victim selection, the lazy re-key flush and the
// victim scratch buffer. Its 1,024 descriptors fit in cache whatever their
// layout; see BenchmarkHeapstoreChurnLarge for a store that does not.
func BenchmarkHeapstoreEvict(b *testing.B) {
	const entries = 1024
	s := NewCostAware(entries * 100)
	now := 0.0
	for i := 0; i < entries; i++ {
		d := NewDescriptor(model.ObjectID(i), 100)
		d.Window.Record(now)
		d.SetMissPenalty(0.01)
		s.Insert(d, now)
		now += 0.01
	}
	// Recycle evicted descriptors so the loop measures store work, not
	// descriptor construction.
	var free []*Descriptor
	next := entries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.01
		var d *Descriptor
		if n := len(free) - 1; n >= 0 {
			d = free[n]
			free = free[:n]
			d.Reset(model.ObjectID(next), 100, 3)
		} else {
			d = NewDescriptor(model.ObjectID(next), 100)
		}
		next++
		d.Window.Record(now)
		d.SetMissPenalty(0.01)
		evicted, ok := s.Insert(d, now)
		if !ok {
			b.Fatal("insert failed")
		}
		free = append(free, evicted...)
		// Touch a resident entry so the lazy-repair path stays warm.
		s.Touch(model.ObjectID(next-entries/2), now)
	}
}

// BenchmarkCostLossNCL25 is the main-cache half of a candidate hop's upward
// step at cluster_get's shape: the cost loss of making room for one object
// in a full 25-entry NCL store, whose victim is its root.
func BenchmarkCostLossNCL25(b *testing.B) {
	const entries = 25
	s := NewCostAware(entries * 100)
	now := 0.0
	for i := 0; i < entries; i++ {
		d := NewDescriptor(model.ObjectID(i), 100)
		d.Window.Record(now)
		d.SetMissPenalty(0.1 + float64(i%7)*0.05)
		s.Insert(d, now)
		now += 1e-4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.CostLoss(100, now); !ok {
			b.Fatal("no room for one object")
		}
		now += 1e-4
	}
}

// BenchmarkHeapstoreChurnLarge is the d-cache at a size where memory layout
// decides the cost: an entry-counted LFU store of 65,536 descriptors (10 MB
// of them, against 1.5 MB of heap slots) kept full. All but a small hot set
// were referenced once, so their keys are exactly tied and the order among
// them is the ID tie-break — the shape a d-cache of one-hit wonders has.
// Each iteration is one hop's worth of store work: a CostLoss peek (read
// from the root, nothing moved), an Insert that evicts, and a Touch that
// re-keys a hot entry.
func BenchmarkHeapstoreChurnLarge(b *testing.B) {
	const (
		entries = 1 << 16
		hot     = 1 << 10
	)
	s := NewDescriptorLFU(entries)
	now := 0.0
	for i := 0; i < entries; i++ {
		d := NewDescriptor(model.ObjectID(i), 100)
		d.Window.Record(now)
		s.Insert(d, now)
	}
	for i := 0; i < 2*hot; i++ {
		now += 0.01
		s.Touch(model.ObjectID(i%hot), now)
	}
	spare := NewDescriptor(0, 100)
	next := entries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 0.01
		if _, ok := s.CostLoss(1, now); !ok {
			b.Fatal("no room for one entry")
		}
		spare.Reset(model.ObjectID(next), 100, 3)
		next++
		spare.Window.Record(now)
		evicted, ok := s.Insert(spare, now)
		if !ok || len(evicted) != 1 {
			b.Fatalf("insert evicted %d, ok %v", len(evicted), ok)
		}
		spare = evicted[0]
		if s.Touch(model.ObjectID(i%hot), now) == nil {
			b.Fatal("hot entry evicted")
		}
	}
}
