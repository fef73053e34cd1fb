package cache

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// mkDesc builds a descriptor with a synthetic frequency: accesses at
// now-2, now-1, now so that f ≈ 3/2 · scale via repeated recording. For
// precise control tests set miss penalty directly.
func mkDesc(id model.ObjectID, size int64, m float64, times ...float64) *Descriptor {
	d := NewDescriptor(id, size)
	d.missPenalty = m
	for _, t := range times {
		d.Window.Record(t)
	}
	return d
}

func TestHeapStoreInsertAndLookup(t *testing.T) {
	s := NewCostAware(100)
	d := mkDesc(1, 40, 2, 0, 1, 2)
	if ev, ok := s.Insert(d, 2); !ok || len(ev) != 0 {
		t.Fatalf("insert: ok=%v evicted=%v", ok, ev)
	}
	if !s.Contains(1) || s.Get(1) != d || s.Used() != 40 || s.Len() != 1 {
		t.Fatalf("store state wrong after insert: used=%d len=%d", s.Used(), s.Len())
	}
	s.checkInvariants()
}

func TestHeapStoreRejectsOversized(t *testing.T) {
	s := NewCostAware(100)
	if _, ok := s.Insert(mkDesc(1, 101, 1, 0), 0); ok {
		t.Fatal("oversized insert accepted")
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatal("failed insert mutated store")
	}
	if loss, ok := s.CostLoss(101, 0); ok || !math.IsInf(loss, 1) {
		t.Fatalf("CostLoss for oversized object: loss=%v ok=%v", loss, ok)
	}
}

func TestHeapStoreRejectsDuplicate(t *testing.T) {
	s := NewCostAware(100)
	s.Insert(mkDesc(1, 10, 1, 0), 0)
	if _, ok := s.Insert(mkDesc(1, 10, 1, 0), 0); ok {
		t.Fatal("duplicate insert accepted")
	}
}

func TestHeapStoreEvictsLowestNCL(t *testing.T) {
	s := NewCostAware(100)
	// Three objects; NCL = f·m/s. All share f (same access times).
	// A: m=10 s=40 → ncl ~ f/4; B: m=1 s=40 → f/40; C: m=5 s=20 → f/4.
	now := 10.0
	a := mkDesc(1, 40, 10, 8, 9, 10)
	b := mkDesc(2, 40, 1, 8, 9, 10)
	c := mkDesc(3, 20, 5, 8, 9, 10)
	for _, d := range []*Descriptor{a, b, c} {
		if _, ok := s.Insert(d, now); !ok {
			t.Fatal("setup insert failed")
		}
	}
	// Need 30 bytes → must evict B (lowest NCL, frees 40).
	ev, ok := s.Insert(mkDesc(4, 30, 2, 9, 10), now)
	if !ok || len(ev) != 1 || ev[0].ID != 2 {
		t.Fatalf("evicted %v, want object 2", ids(ev))
	}
	if ev[0].InStore() {
		t.Fatal("evicted descriptor still marked in-store")
	}
	s.checkInvariants()
}

func TestHeapStoreGreedyMatchesSortOrder(t *testing.T) {
	// The greedy victim set must equal taking objects in ascending NCL
	// order until enough space is freed.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		s := NewCostAware(10000)
		now := 100.0
		type obj struct {
			id  model.ObjectID
			ncl float64
		}
		var objs []obj
		used := int64(0)
		for id := model.ObjectID(1); used < 9000; id++ {
			size := int64(50 + r.Intn(400))
			d := mkDesc(id, size, 1+9*r.Float64(), 90+10*r.Float64())
			if _, ok := s.Insert(d, now); !ok {
				break
			}
			used += size
			objs = append(objs, obj{id, d.NCL(now)})
		}
		sort.Slice(objs, func(i, j int) bool {
			if objs[i].ncl != objs[j].ncl {
				return objs[i].ncl < objs[j].ncl
			}
			return objs[i].id < objs[j].id
		})
		need := int64(200 + r.Intn(2000))
		free := s.Capacity() - s.Used()
		var wantIDs []model.ObjectID
		for i := 0; free < need && i < len(objs); i++ {
			wantIDs = append(wantIDs, objs[i].id)
			free += s.Get(objs[i].id).Size
		}
		ev, ok := s.Insert(mkDesc(9999, need, 100, now), now)
		if !ok {
			t.Fatalf("trial %d: insert failed", trial)
		}
		got := ids(ev)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		if len(got) != len(wantIDs) {
			t.Fatalf("trial %d: evicted %v, want %v", trial, got, wantIDs)
		}
		for i := range got {
			if got[i] != wantIDs[i] {
				t.Fatalf("trial %d: evicted %v, want %v", trial, got, wantIDs)
			}
		}
		s.checkInvariants()
	}
}

func TestHeapStoreCostLossMatchesEvictionLoss(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		s := NewCostAware(5000)
		now := 50.0
		for id := model.ObjectID(1); id <= 30; id++ {
			s.Insert(mkDesc(id, int64(50+r.Intn(200)), 10*r.Float64(), 40+10*r.Float64()), now)
		}
		need := int64(100 + r.Intn(1500))
		peek, ok := s.CostLoss(need, now)
		if !ok {
			t.Fatal("CostLoss failed for feasible size")
		}
		before := s.Len()
		ev, ok := s.Insert(mkDesc(999, need, 1, now), now)
		if !ok {
			t.Fatal("insert failed")
		}
		var actual float64
		for _, d := range ev {
			actual += d.CostLoss(now)
		}
		if math.Abs(peek-actual) > 1e-9 {
			t.Fatalf("trial %d: peeked loss %v != actual %v", trial, peek, actual)
		}
		if s.Len() != before-len(ev)+1 {
			t.Fatalf("len accounting off: %d", s.Len())
		}
		s.checkInvariants()
	}
}

func TestHeapStoreCostLossDoesNotMutate(t *testing.T) {
	s := NewCostAware(100)
	now := 5.0
	s.Insert(mkDesc(1, 60, 2, 4, 5), now)
	s.Insert(mkDesc(2, 40, 3, 4, 5), now)
	root := s.h[0].id
	if _, ok := s.CostLoss(50, now); !ok {
		t.Fatal("CostLoss failed")
	}
	if !s.Contains(1) || !s.Contains(2) || s.Used() != 100 {
		t.Fatal("CostLoss mutated the store")
	}
	if s.h[0].id != root || len(s.dirty) != 0 {
		t.Fatal("CostLoss moved an entry or re-keyed one")
	}
	s.checkInvariants()
}

func TestHeapStoreCostLossZeroWhenRoom(t *testing.T) {
	s := NewCostAware(100)
	s.Insert(mkDesc(1, 10, 5, 0), 0)
	loss, ok := s.CostLoss(80, 0)
	if !ok || loss != 0 {
		t.Fatalf("loss=%v ok=%v, want 0,true", loss, ok)
	}
}

func TestHeapStoreSetMissPenaltyReordersEviction(t *testing.T) {
	s := NewCostAware(100)
	now := 10.0
	s.Insert(mkDesc(1, 50, 10, 9, 10), now)
	s.Insert(mkDesc(2, 50, 1, 9, 10), now)
	// Raise 2's penalty above 1's → 1 becomes the victim.
	if !s.SetMissPenalty(2, 100, now) {
		t.Fatal("SetMissPenalty missed present object")
	}
	ev, ok := s.Insert(mkDesc(3, 10, 1, 10), now)
	if !ok || len(ev) != 1 || ev[0].ID != 1 {
		t.Fatalf("evicted %v, want object 1", ids(ev))
	}
	if s.SetMissPenalty(99, 1, now) {
		t.Fatal("SetMissPenalty claimed success on absent object")
	}
}

func TestHeapStoreTouchProtectsFromEviction(t *testing.T) {
	s := NewCostAware(100)
	// Same penalty/size; object 1 accessed long ago, object 2 recently.
	d1 := mkDesc(1, 50, 5, 0, 1, 2)
	d2 := mkDesc(2, 50, 5, 0, 1, 2)
	s.Insert(d1, 2)
	s.Insert(d2, 2)
	now := 1000.0
	if s.Touch(2, now) != d2 {
		t.Fatal("touch missed present object")
	}
	if s.Touch(42, now) != nil {
		t.Fatal("touch claimed success on absent object")
	}
	ev, ok := s.Insert(mkDesc(3, 50, 5, now), now)
	if !ok || len(ev) != 1 || ev[0].ID != 1 {
		t.Fatalf("evicted %v, want stale object 1", ids(ev))
	}
}

func TestHeapStoreLazyRefreshAgesStaleEntries(t *testing.T) {
	// Entry A looks expensive (high cached key from old estimate) but has
	// decayed; entry B has a fresh middling key. After aging, A must be
	// chosen as victim once its stale key is refreshed.
	s := NewCostAware(100)
	a := mkDesc(1, 50, 10, 0, 1, 2) // f cached at t=2: 3/2 → key 3/2*10/50 = 0.3
	s.Insert(a, 2)
	b := mkDesc(2, 50, 10, 0, 1, 2)
	s.Insert(b, 2)
	now := 100000.0
	s.Touch(2, now) // B refreshed: f = 3/(now-1) tiny but multiplied... recompute both
	// At `now`, A's true key is ~3/(now-2)·10/50 ≈ tiny; B was just
	// accessed so its window is {1,2,now} → f = 3/(now-1), similar — but
	// B's most recent access makes its *next* refresh the same. Give B a
	// clearly better (higher) frequency by touching repeatedly.
	s.Touch(2, now+1)
	s.Touch(2, now+2)
	ev, ok := s.Insert(mkDesc(3, 50, 10, now+2), now+2)
	if !ok || len(ev) != 1 || ev[0].ID != 1 {
		t.Fatalf("evicted %v, want decayed object 1", ids(ev))
	}
}

func TestHeapStoreRemove(t *testing.T) {
	s := NewCostAware(100)
	s.Insert(mkDesc(1, 30, 1, 0), 0)
	s.Insert(mkDesc(2, 30, 1, 0), 0)
	d := s.Remove(1)
	if d == nil || d.ID != 1 || s.Contains(1) || s.Used() != 30 {
		t.Fatalf("remove failed: %+v used=%d", d, s.Used())
	}
	if d.InStore() {
		t.Fatal("removed descriptor still marked in-store")
	}
	if s.Remove(1) != nil {
		t.Fatal("double remove returned a descriptor")
	}
	s.checkInvariants()
}

func TestHeapStoreNeverExceedsCapacityRandomOps(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := NewCostAware(2000)
	now := 0.0
	live := map[model.ObjectID]bool{}
	nextID := model.ObjectID(1)
	for op := 0; op < 5000; op++ {
		now += r.Float64()
		switch r.Intn(4) {
		case 0, 1: // insert
			d := mkDesc(nextID, int64(1+r.Intn(700)), 10*r.Float64(), now)
			nextID++
			if ev, ok := s.Insert(d, now); ok {
				live[d.ID] = true
				for _, e := range ev {
					delete(live, e.ID)
				}
			}
		case 2: // touch a random live object
			for id := range live {
				s.Touch(id, now)
				break
			}
		case 3: // remove
			for id := range live {
				s.Remove(id)
				delete(live, id)
				break
			}
		}
		if s.Used() > s.Capacity() {
			t.Fatalf("op %d: used %d > capacity %d", op, s.Used(), s.Capacity())
		}
		if s.Len() != len(live) {
			t.Fatalf("op %d: len %d != tracked %d", op, s.Len(), len(live))
		}
		s.checkInvariants()
	}
}

func TestDescriptorLFUCountsEntries(t *testing.T) {
	s := NewDescriptorLFU(3)
	now := 10.0
	for id := model.ObjectID(1); id <= 3; id++ {
		if _, ok := s.Insert(mkDesc(id, 1000*int64(id), 1, 9, 10), now); !ok {
			t.Fatal("insert failed")
		}
	}
	if s.Used() != 3 {
		t.Fatalf("entry-capacity used = %d, want 3", s.Used())
	}
	// Make object 2 clearly least frequent: after the aging interval,
	// objects 1 and 3 get a third access while 2 keeps two old ones.
	later := now + 710
	s.Touch(1, later)
	s.Touch(3, later)
	ev, ok := s.Insert(mkDesc(4, 1, 1, later), later)
	if !ok || len(ev) != 1 || ev[0].ID != 2 {
		t.Fatalf("evicted %v, want LFU object 2", ids(ev))
	}
	s.checkInvariants()
}

// TestNCLKeyAndFreqKey holds each store's key, and the cost loss evaluated
// beside it from the same estimate, bit for bit to the descriptor's own NCL,
// Freq and CostLoss.
func TestNCLKeyAndFreqKey(t *testing.T) {
	d := mkDesc(1, 100, 4, 0, 1, 2)
	now := 2.0
	f := d.Freq(now)
	ncl, lfu := NewCostAware(0), NewLFU(0)
	if got, fm := ncl.rate(d, now); got != d.NCL(now) || got != f*4/100 || fm != d.CostLoss(now) {
		t.Fatalf("NCL key = %v and f·m = %v, want %v and %v", got, fm, d.NCL(now), d.CostLoss(now))
	}
	if got, fm := lfu.rate(d, now); got != f || fm != d.CostLoss(now) {
		t.Fatalf("frequency key = %v and f·m = %v, want %v and %v", got, fm, f, d.CostLoss(now))
	}
	z := NewDescriptor(2, 0)
	if k, _ := ncl.rate(z, 0); z.NCL(0) != 0 || k != 0 {
		t.Fatal("zero-size descriptor NCL not zero")
	}
}

func TestHeapStoreForEach(t *testing.T) {
	s := NewCostAware(1000)
	for id := model.ObjectID(1); id <= 5; id++ {
		s.Insert(mkDesc(id, 10, 1, 0), 0)
	}
	seen := map[model.ObjectID]bool{}
	s.ForEach(func(d *Descriptor) { seen[d.ID] = true })
	if len(seen) != 5 {
		t.Fatalf("ForEach visited %d entries, want 5", len(seen))
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	if s := NewCostAware(-5); s.Capacity() != 0 {
		t.Fatal("negative capacity not clamped")
	}
	if c := NewLRU(-5); c.Capacity() != 0 {
		t.Fatal("negative LRU capacity not clamped")
	}
	if c := NewGreedyDualSize(-5); c.Capacity() != 0 {
		t.Fatal("negative GDS capacity not clamped")
	}
}

func ids(ds []*Descriptor) []model.ObjectID {
	out := make([]model.ObjectID, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	return out
}

func BenchmarkHeapStoreInsertEvict(b *testing.B) {
	s := NewCostAware(1 << 20)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		d := mkDesc(model.ObjectID(i), int64(1000+r.Intn(9000)), 10*r.Float64(), now)
		s.Insert(d, now)
	}
}

func BenchmarkHeapStoreCostLoss(b *testing.B) {
	s := NewCostAware(1 << 20)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s.Insert(mkDesc(model.ObjectID(i), int64(1000+r.Intn(9000)), 10*r.Float64(), float64(i)), float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CostLoss(20000, 200)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewCostAware(10000)
	now := 100.0
	for id := model.ObjectID(1); id <= 8; id++ {
		d := mkDesc(id, 500+int64(id)*10, float64(id), 90, 95, 100)
		if _, ok := s.Insert(d, now); !ok {
			t.Fatal("setup insert failed")
		}
	}
	snaps := s.Snapshot()
	if len(snaps) != 8 {
		t.Fatalf("snapshot has %d entries", len(snaps))
	}

	s2 := NewCostAware(10000)
	if got := s2.Restore(snaps, now); got != 8 {
		t.Fatalf("restored %d", got)
	}
	for id := model.ObjectID(1); id <= 8; id++ {
		a, b := s.Get(id), s2.Get(id)
		if b == nil {
			t.Fatalf("object %d missing after restore", id)
		}
		if a.Size != b.Size || a.MissPenalty() != b.MissPenalty() {
			t.Fatalf("object %d state differs: %+v vs %+v", id, a, b)
		}
		if a.Window.Count() != b.Window.Count() || a.Window.LastAccess() != b.Window.LastAccess() {
			t.Fatalf("object %d window differs", id)
		}
	}
	s2.checkInvariants()
}

func TestRestoreRespectsCapacity(t *testing.T) {
	s := NewCostAware(10000)
	for id := model.ObjectID(1); id <= 8; id++ {
		s.Insert(mkDesc(id, 1000, 1, 99, 100), 100)
	}
	small := NewCostAware(3000)
	restored := small.Restore(s.Snapshot(), 100)
	if restored > 3 || small.Used() > small.Capacity() {
		t.Fatalf("restored %d into capacity 3000 (used %d)", restored, small.Used())
	}
}

// TestDescriptorLayout pins the three sizes the store's memory behaviour
// rests on. A 96-byte descriptor fills an allocator size class exactly; one
// more word and every descriptor in every cache and d-cache occupies 112.
// A slot is three words, so a cache line holds the keys of two to three
// neighbours and sifting never leaves the heap's own array. An index slot
// is two words, so a probe reads four slots per cache line.
func TestDescriptorLayout(t *testing.T) {
	if got := unsafe.Sizeof(Descriptor{}); got != 96 {
		t.Fatalf("Descriptor is %d bytes, want 96 (the next allocator class is 112)", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("heap slot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(indexSlot{}); got != 16 {
		t.Fatalf("index slot is %d bytes, want 16", got)
	}
}

// TestEntryStoreHeapExact drives a d-cache stripe — an entry-counted store —
// well past its capacity: its heap may grow only up to that capacity, never
// to the slack append would leave (the next power of two and beyond).
func TestEntryStoreHeapExact(t *testing.T) {
	for _, capacity := range []int64{1, 5, 12, 100, 1000, 1500} {
		s := NewDescriptorLFU(capacity)
		now := 0.0
		for id := model.ObjectID(0); id < model.ObjectID(3*capacity+10); id++ {
			now += 0.5
			if _, ok := s.Insert(mkDesc(id, 1, 1, now), now); !ok {
				t.Fatalf("capacity %d: insert %d failed", capacity, id)
			}
			if int64(cap(s.h)) > capacity {
				t.Fatalf("capacity %d: heap backing array holds %d slots after %d inserts", capacity, cap(s.h), id+1)
			}
		}
		if int64(s.Len()) != capacity {
			t.Fatalf("capacity %d: %d entries", capacity, s.Len())
		}
		s.checkInvariants()
	}
}

// TestSnapshotRoundTripEveryK restores a snapshot of a descriptor at every
// window size, including those whose window continues past the inline
// times: the windows must be equal, and the two descriptors must share no
// ring — recording into one leaves the other as it was.
func TestSnapshotRoundTripEveryK(t *testing.T) {
	for k := 1; k <= 8; k++ {
		a := NewDescriptorK(7, 100, k)
		a.missPenalty = 2
		for i := 0; i < 2*k+1; i++ {
			a.Window.Record(float64(i))
		}
		b, err := RestoreDescriptor(a.Snapshot())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !sameWindow(&a.Window, &b.Window) {
			t.Fatalf("k=%d: restored window %v (k=%d), original %v", k, b.Window.Times(), b.Window.K(), a.Window.Times())
		}
		before := b.Window.Times()
		for i := 0; i < k; i++ {
			a.Window.Record(float64(100 + i))
		}
		if after := b.Window.Times(); !slices.Equal(before, after) {
			t.Fatalf("k=%d: recording into the original changed the restored window %v → %v", k, before, after)
		}
	}
}

// sameWindow reports whether two windows hold the same state as far as any
// reader can tell.
func sameWindow(a, b *freq.Window) bool {
	return a.K() == b.K() && a.Count() == b.Count() && a.LastAccess() == b.LastAccess() &&
		a.Peek() == b.Peek() && slices.Equal(a.Times(), b.Times())
}
