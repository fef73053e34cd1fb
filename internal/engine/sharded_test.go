package engine

import (
	"testing"
	"unsafe"

	"cascade/internal/model"
)

func TestNormalizeShards(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16}
	for in, want := range cases {
		if got := NormalizeShards(in); got != want {
			t.Errorf("NormalizeShards(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestShardedCapacitySplitExact(t *testing.T) {
	// A total that does not divide evenly: the remainder must land on the
	// lowest shards, one byte each, and the sum must stay exact.
	s := NewSharded(ShardedConfig{Shards: 8, CacheBytes: 1003, DCacheEntries: 13})
	if s.ShardCount() != 8 {
		t.Fatalf("shard count %d", s.ShardCount())
	}
	if got := s.Capacity(); got != 1003 {
		t.Fatalf("total capacity %d, want 1003", got)
	}
	var sum int64
	for i := 0; i < 8; i++ {
		st := s.ShardStatsAt(i)
		sum += st.CapacityBytes
		want := int64(125)
		if i < 3 { // 1003 = 8*125 + 3
			want = 126
		}
		if st.CapacityBytes != want {
			t.Errorf("shard %d capacity %d, want %d", i, st.CapacityBytes, want)
		}
	}
	if sum != 1003 {
		t.Fatalf("shard capacities sum to %d", sum)
	}
}

func TestShardOfInRangeAndDeterministic(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 8, CacheBytes: 1 << 20, DCacheEntries: 64})
	seen := map[int]bool{}
	for obj := model.ObjectID(0); obj < 4096; obj++ {
		i := s.ShardOf(obj)
		if i < 0 || i >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", obj, i)
		}
		if j := s.ShardOf(obj); j != i {
			t.Fatalf("ShardOf(%d) not deterministic: %d then %d", obj, i, j)
		}
		seen[i] = true
	}
	if len(seen) != 8 {
		t.Errorf("4096 sequential IDs hit only %d/8 shards", len(seen))
	}
	// The single-shard configuration must keep every object on shard 0
	// (the variable shift is 64 there, which Go defines as yielding 0).
	one := NewSharded(ShardedConfig{Shards: 1, CacheBytes: 1 << 20, DCacheEntries: 64})
	for obj := model.ObjectID(0); obj < 1024; obj++ {
		if one.ShardOf(obj) != 0 {
			t.Fatalf("single shard: ShardOf(%d) = %d", obj, one.ShardOf(obj))
		}
	}
}

// fill pushes objects through the descriptor-then-place protocol sequence so
// they land in the store with real history.
func fill(s *Sharded, objs []model.ObjectID, size int64, now float64) int {
	placedCount := 0
	for i, obj := range objs {
		ts := now + float64(i)*0.01
		s.UpMiss(obj, size, 0, 1, ts)       // creates the descriptor
		s.UpMiss(obj, size, 0, 1, ts+0.001) // second touch: usable frequency
		out, _ := s.DownStep(obj, size, true, 1, 0, 0, ts+0.002, nil)
		if out.Placed {
			placedCount++
		}
	}
	return placedCount
}

func TestShardedProtocolFlowAndCounters(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 4, CacheBytes: 64 << 10, DCacheEntries: 256})
	objs := make([]model.ObjectID, 32)
	for i := range objs {
		objs[i] = model.ObjectID(i * 17)
	}
	placedCount := fill(s, objs, 1024, 1)
	if placedCount == 0 {
		t.Fatal("nothing placed")
	}
	if got := s.StoreLen(); got != placedCount {
		t.Fatalf("StoreLen %d, want %d", got, placedCount)
	}
	var inserts int64
	var used int64
	for i := 0; i < s.ShardCount(); i++ {
		st := s.ShardStatsAt(i)
		inserts += st.Inserts
		used += st.UsedBytes
		if st.UsedBytes > st.CapacityBytes {
			t.Errorf("shard %d over capacity: %d > %d", i, st.UsedBytes, st.CapacityBytes)
		}
	}
	if inserts != int64(placedCount) {
		t.Fatalf("shard insert counters sum to %d, want %d", inserts, placedCount)
	}
	if used != s.Used() {
		t.Fatalf("shard used sums to %d, Used() says %d", used, s.Used())
	}
	for _, obj := range objs[:4] {
		if !s.Contains(obj) && !s.DCacheContains(obj) {
			t.Errorf("object %d vanished entirely", obj)
		}
	}
	hit := false
	for _, obj := range objs {
		if s.Lookup(obj, 100) {
			hit = true
			break
		}
	}
	if !hit {
		t.Fatal("no placed object is servable")
	}
}

// TestShardedDrainMatchesUnsharded pins the drain contract: a 4-shard node
// and a single-shard node fed the identical sequence spill their descriptors
// in the identical global NCL order, so a parent absorbs identically
// whichever layout the child ran.
func TestShardedDrainMatchesUnsharded(t *testing.T) {
	build := func(p int) *Sharded {
		s := NewSharded(ShardedConfig{Shards: p, CacheBytes: 256 << 10, DCacheEntries: 512})
		objs := make([]model.ObjectID, 40)
		for i := range objs {
			objs[i] = model.ObjectID(i * 13)
		}
		// Varied touch counts so NCLs differ across objects.
		for i, obj := range objs {
			for k := 0; k <= i%5; k++ {
				s.UpMiss(obj, 2048, 0, 1, 1+float64(i)+float64(k)*0.1)
			}
			s.DownStep(obj, 2048, true, 1, 0, 0, 2+float64(i), nil)
		}
		return s
	}
	a := build(4).DrainDescriptors(1000)
	b := build(1).DrainDescriptors(1000)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("drain lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("drain order diverges at %d: sharded %d, unsharded %d", i, a[i].ID, b[i].ID)
		}
	}
}

func TestShardedAbsorbAndRestore(t *testing.T) {
	donor := NewSharded(ShardedConfig{Shards: 2, CacheBytes: 64 << 10, DCacheEntries: 128})
	objs := []model.ObjectID{3, 7, 11, 19, 23}
	fill(donor, objs, 1024, 1)
	snaps := donor.DrainDescriptors(50)
	if donor.StoreLen() != 0 {
		t.Fatal("drain left descriptors behind")
	}

	parent := NewSharded(ShardedConfig{Shards: 4, CacheBytes: 64 << 10, DCacheEntries: 128})
	if got := parent.Absorb(snaps, 51); got != len(snaps) {
		t.Fatalf("absorbed %d of %d", got, len(snaps))
	}
	for _, obj := range objs {
		if !parent.DCacheContains(obj) {
			t.Errorf("object %d not in parent d-cache after absorb", obj)
		}
	}

	// RestoreInsert honours the owning shard's free space.
	fresh := NewSharded(ShardedConfig{Shards: 2, CacheBytes: 4096, DCacheEntries: 16})
	restored := 0
	for _, snap := range snaps {
		if fresh.RestoreInsert(snap, 60) {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("nothing restored")
	}
	if fresh.Used() > fresh.Capacity() {
		t.Fatalf("restore overfilled: %d > %d", fresh.Used(), fresh.Capacity())
	}
}

// TestShardLayout pins the shard padding, as cache.TestDescriptorLayout pins
// the descriptor: a shard fills whole 64-byte lines with its mutex first,
// and in the slices NewSharded allocates no shard's counters share a line
// with the next shard's mutex. (At 144 bytes, shard 2's evictions and
// lockWaits sat on the line holding shard 3's mutex.)
func TestShardLayout(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size%64 != 0 {
		t.Fatalf("shard is %d bytes, not a whole number of 64-byte lines", size)
	}
	if off := unsafe.Offsetof(shard{}.mu); off != 0 {
		t.Fatalf("shard mutex at offset %d, want 0", off)
	}
	for _, p := range []int{2, 4, 8, 16, 64, 512} {
		s := NewSharded(ShardedConfig{Shards: p, CacheBytes: 1 << 20, DCacheEntries: 64})
		for i := 0; i+1 < p; i++ {
			last := uintptr(unsafe.Pointer(&s.shards[i].lockWaits)) + unsafe.Sizeof(s.shards[i].lockWaits) - 1
			next := uintptr(unsafe.Pointer(&s.shards[i+1].mu))
			if last/64 == next/64 {
				t.Fatalf("%d shards: shard %d's counters end at %#x, on the line of shard %d's mutex at %#x", p, i, last, i+1, next)
			}
		}
	}
}
