package dcache

import (
	"testing"

	"cascade/internal/cache"
	"cascade/internal/model"
)

// BenchmarkReuseVictimFullStripe is the d-cache half of a non-placing hop at
// cluster_get's shape: a full 75-entry stripe admits an object it has no
// descriptor for, in the descriptor of its least-frequent entry.
func BenchmarkReuseVictimFullStripe(b *testing.B) {
	const entries = 75
	dc := New(entries)
	now := 0.0
	for i := 0; i < entries; i++ {
		d := cache.NewDescriptor(model.ObjectID(i), 100)
		d.Window.Record(now)
		dc.Put(d, now)
		now += 1e-4
	}
	next := model.ObjectID(entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !dc.ReuseVictim(next, 100, 3, 0.3, now) {
			b.Fatal("a full stripe declined to admit")
		}
		next++
		now += 1e-4
	}
}
