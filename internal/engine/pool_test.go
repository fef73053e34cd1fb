package engine

import (
	"slices"
	"testing"

	"cascade/internal/cache"
	"cascade/internal/model"
)

// TestDescPoolRecycleEveryK cycles descriptors of every window size through a
// pool, so recycled descriptors change K in both directions and keep their
// overflow rings. Every live descriptor must still hold the last K times
// recorded into it — after its own recording and after every later
// descriptor's — so no two live descriptors ever share a ring.
func TestDescPoolRecycleEveryK(t *testing.T) {
	type entry struct {
		d    *cache.Descriptor
		want []float64 // the last K recorded times, oldest first
	}
	var p DescPool
	var live []entry
	for round := 0; round < 64; round++ {
		k := 1 + (round*5)%8
		e := entry{d: p.Get(model.ObjectID(round), 100, k)}
		if e.d.Window.K() != k || e.d.Window.Count() != 0 || e.d.InStore() {
			t.Fatalf("round %d: pooled descriptor has k=%d, %d times, in store %v", round, e.d.Window.K(), e.d.Window.Count(), e.d.InStore())
		}
		for i := 0; i < 2*k+1; i++ {
			at := float64(1000*round + i)
			e.d.Window.Record(at)
			e.want = append(e.want, at)
		}
		e.want = e.want[len(e.want)-k:]
		live = append(live, e)
		for _, l := range live {
			if got := l.d.Window.Times(); !slices.Equal(got, l.want) {
				t.Fatalf("round %d (k=%d): object %d holds %v, want %v", round, k, l.d.ID, got, l.want)
			}
		}
		if len(live) > 3 {
			p.Recycle(live[0].d)
			live = live[1:]
		}
	}
}
