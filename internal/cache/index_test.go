package cache

import (
	"math/rand"
	"slices"
	"testing"

	"cascade/internal/model"
	"cascade/internal/store"
)

// indexTestSeed fixes the hash seed of the op-sequence tests, so that the
// colliding ID family below really collides.
const indexTestSeed = 0x5eed

// Encoding of an index op sequence, shared by the differential test and the
// fuzz target. Byte 0 picks the ID family (low three bits, indexFamilies)
// and the population cap (the rest, indexCaps); every following pair
// {op, arg} is one op on family[arg % 64]: put, del or get. A put at the cap
// first deletes the present ID op>>2 picks, so the population churns in
// place and deletes land anywhere inside a cluster.
var (
	indexCaps = [4]int{6, 12, 24, 48}

	indexFamilies = [5]func() []model.ObjectID{
		sequentialIDs,
		oneShardIDs,
		segmentIDs,
		tableEndIDs,
		wideIDs,
	}
)

const indexFamilySize = 64

func sequentialIDs() []model.ObjectID {
	ids := make([]model.ObjectID, indexFamilySize)
	for i := range ids {
		ids[i] = model.ObjectID(i)
	}
	return ids
}

// oneShardIDs are the first IDs one shard of an 8-shard engine.Sharded node
// owns: the top three bits of their Fibonacci hash (Sharded.ShardOf's rule)
// are all 5.
func oneShardIDs() []model.ObjectID {
	var ids []model.ObjectID
	for id := model.ObjectID(0); len(ids) < indexFamilySize; id++ {
		if uint64(id)*0x9E3779B97F4A7C15>>61 == 5 {
			ids = append(ids, id)
		}
	}
	return ids
}

// segmentIDs are the segment identities of two large objects.
func segmentIDs() []model.ObjectID {
	ids := make([]model.ObjectID, indexFamilySize)
	for i := range ids {
		ids[i] = store.SegmentID(model.ObjectID(7+i%2), i/2)
	}
	return ids
}

// tableEndIDs all hash to the last slot of the first, eight-slot table under
// indexTestSeed: at a population cap of 6 they form one cluster that wraps
// round the table end.
func tableEndIDs() []model.ObjectID {
	x := index{seed: indexTestSeed, slots: make([]indexSlot, minIndexSlots), shift: 61}
	var ids []model.ObjectID
	for id := model.ObjectID(1); len(ids) < indexFamilySize; id++ {
		if x.home(id) == minIndexSlots-1 {
			ids = append(ids, id)
		}
	}
	return ids
}

// wideIDs span the whole int64 range, negatives and zero included.
func wideIDs() []model.ObjectID {
	rng := rand.New(rand.NewSource(9))
	ids := make([]model.ObjectID, indexFamilySize)
	for i := range ids {
		ids[i] = model.ObjectID(rng.Uint64())
	}
	ids[0], ids[1] = 0, -1
	return ids
}

// runIndexOps drives an index and a map through the encoded ops, checking
// every lookup against the map and the table's invariants after each op.
// It returns the largest population the run reached and whether a cluster
// ever wrapped round the table end (an entry sat below its home slot).
func runIndexOps(t *testing.T, data []byte) (peak int, wrapped bool) {
	t.Helper()
	if len(data) == 0 {
		return 0, false
	}
	ids := indexFamilies[int(data[0]&7)%len(indexFamilies)]()
	limit := indexCaps[int(data[0]>>3)%len(indexCaps)]
	x := index{seed: indexTestSeed}
	ref := map[model.ObjectID]*Descriptor{}
	var present []model.ObjectID // insertion order, for picking deletions
	drop := func(id model.ObjectID) {
		got := x.del(id)
		if got != ref[id] {
			t.Fatalf("del(%d) = %v, map holds %v", id, got, ref[id])
		}
		if got != nil {
			delete(ref, id)
			present = slices.DeleteFunc(present, func(p model.ObjectID) bool { return p == id })
		}
	}
	for i := 1; i+1 < len(data); i += 2 {
		op, id := data[i], ids[int(data[i+1])%len(ids)]
		switch op & 3 {
		case 0, 1:
			if ref[id] != nil {
				break
			}
			if len(ref) >= limit {
				drop(present[int(op>>2)%len(present)])
			}
			d := NewDescriptor(id, 1)
			x.put(d)
			ref[id] = d
			present = append(present, id)
		case 2:
			drop(id)
		default:
			if got := x.get(id); got != ref[id] {
				t.Fatalf("op %d: get(%d) = %v, map holds %v", i/2, id, got, ref[id])
			}
		}
		x.check()
		if x.n != len(ref) {
			t.Fatalf("op %d: %d entries, map holds %d", i/2, x.n, len(ref))
		}
		for _, p := range present {
			if x.get(p) != ref[p] {
				t.Fatalf("op %d: entry %d lost", i/2, p)
			}
		}
		peak = max(peak, len(ref))
		for i, sl := range x.slots {
			wrapped = wrapped || (sl.d != nil && i < x.home(sl.id))
		}
	}
	return peak, wrapped
}

// indexOpCases are the differential test's inputs and the fuzz target's seed
// corpus: a random op string for every family at every population cap.
func indexOpCases() [][]byte {
	var cases [][]byte
	for config := 0; config < 8*len(indexCaps); config++ {
		if config&7 >= len(indexFamilies) {
			continue
		}
		rng := rand.New(rand.NewSource(int64(config)))
		data := make([]byte, 1+2*3000)
		rng.Read(data)
		data[0] = byte(config)
		cases = append(cases, data)
	}
	return cases
}

// TestIndexDifferential holds the open-addressing index to a Go map over
// puts, deletes and lookups: constant-population churn at every load the
// table passes through, a cluster wrapping the table end with deletes
// inside it, the IDs of one engine shard, segment identities and IDs across
// the whole int64 range.
func TestIndexDifferential(t *testing.T) {
	for _, data := range indexOpCases() {
		limit := indexCaps[int(data[0]>>3)%len(indexCaps)]
		peak, wrapped := runIndexOps(t, data)
		if peak != limit {
			t.Fatalf("case %d: population peaked at %d, below its cap of %d", data[0], peak, limit)
		}
		if data[0] == 3 && !wrapped {
			t.Fatal("the table-end family never wrapped a cluster round the table end")
		}
	}
}

// FuzzIndexOps seeds from a prefix of each differential case.
func FuzzIndexOps(f *testing.F) {
	for _, data := range indexOpCases() {
		f.Add(data[:1+2*256])
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexOps(t, data) })
}

// TestIndexNoGrowthUnderChurn drives d-cache stripes (entry-counted stores)
// through a hundred times their capacity in admissions at full population:
// the index keeps the size it reached when the stripe first filled — the
// smallest power of two holding the capacity at ¾ load — where a Go map
// under the same churn keeps growing its tombstoned groups.
func TestIndexNoGrowthUnderChurn(t *testing.T) {
	for _, capacity := range []int64{1, 6, 75, 450, 600} {
		s := NewDescriptorLFU(capacity)
		now, id := 0.0, model.ObjectID(0)
		admit := func() {
			now += 0.25
			id++
			if _, ok := s.Insert(mkDesc(id, 1, 1, now), now); !ok {
				t.Fatalf("capacity %d: admission %d failed", capacity, id)
			}
		}
		for int64(s.Len()) < capacity {
			admit()
		}
		size := len(s.idx.slots)
		want := minIndexSlots
		for 4*capacity > 3*int64(want) {
			want *= 2
		}
		if size != want {
			t.Fatalf("capacity %d: a full stripe's table has %d slots, want %d", capacity, size, want)
		}
		for i := int64(0); i < 100*capacity; i++ {
			admit()
			if len(s.idx.slots) != size {
				t.Fatalf("capacity %d: table grew %d → %d slots after %d churned admissions", capacity, size, len(s.idx.slots), i+1)
			}
		}
		s.checkInvariants()
	}
}

// TestSnapshotOrderIndependentOfSeed gives two stores the same operations
// under different index seeds: ForEach and Snapshot must return the same
// sequence, because Absorb and Restore keep whatever a full store admits
// first and every process must keep the same entries.
func TestSnapshotOrderIndependentOfSeed(t *testing.T) {
	build := func(seed uint64) *HeapStore {
		s := NewCostAware(20000)
		s.idx.seed = seed
		rng := rand.New(rand.NewSource(3))
		now := 0.0
		for op := 0; op < 3000; op++ {
			now += rng.Float64()
			id := model.ObjectID(rng.Intn(200))
			switch rng.Intn(4) {
			case 0, 1:
				s.Insert(mkDesc(id, int64(100+rng.Intn(900)), 10*rng.Float64(), now), now)
			case 2:
				s.Touch(id, now)
			default:
				s.Remove(id)
			}
		}
		return s
	}
	a, b := build(1), build(0xfeedface)
	if a.Len() < 10 {
		t.Fatalf("only %d entries", a.Len())
	}
	var orderA, orderB []model.ObjectID
	a.ForEach(func(d *Descriptor) { orderA = append(orderA, d.ID) })
	b.ForEach(func(d *Descriptor) { orderB = append(orderB, d.ID) })
	if !slices.Equal(orderA, orderB) {
		t.Fatalf("ForEach order depends on the index seed:\n%v\n%v", orderA, orderB)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if !slices.EqualFunc(sa, sb, func(x, y DescriptorSnapshot) bool {
		return x.ID == y.ID && x.Size == y.Size && x.MissPenalty == y.MissPenalty &&
			x.Gen == y.Gen && x.WindowK == y.WindowK && slices.Equal(x.AccessTimes, y.AccessTimes)
	}) {
		t.Fatal("Snapshot sequence depends on the index seed")
	}
}
