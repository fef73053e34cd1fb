package cache

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// refLRU is a deliberately naive LRU used as a behavioural oracle: a slice
// ordered most-recent-first.
type refLRU struct {
	capacity int64
	used     int64
	order    []LRUEntry
}

func (r *refLRU) find(id model.ObjectID) int {
	for i, e := range r.order {
		if e.ID == id {
			return i
		}
	}
	return -1
}

func (r *refLRU) touch(id model.ObjectID) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	e := r.order[i]
	r.order = append(r.order[:i], r.order[i+1:]...)
	r.order = append([]LRUEntry{e}, r.order...)
	return true
}

func (r *refLRU) insert(id model.ObjectID, size int64) ([]LRUEntry, bool) {
	if size > r.capacity || r.find(id) >= 0 {
		return nil, false
	}
	var evicted []LRUEntry
	for r.used+size > r.capacity {
		last := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		r.used -= last.Size
		evicted = append(evicted, last)
	}
	r.order = append([]LRUEntry{{ID: id, Size: size}}, r.order...)
	r.used += size
	return evicted, true
}

func (r *refLRU) remove(id model.ObjectID) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	r.used -= r.order[i].Size
	r.order = append(r.order[:i], r.order[i+1:]...)
	return true
}

// TestLRUModelBased drives the production LRU and the oracle through an
// identical random operation stream; every observable must agree.
func TestLRUModelBased(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	real := NewLRU(1500)
	ref := &refLRU{capacity: 1500}
	for op := 0; op < 30000; op++ {
		id := model.ObjectID(rng.Intn(40))
		switch rng.Intn(4) {
		case 0, 1:
			size := int64(100 + int(id)*13%400)
			gotEv, gotOK := real.Insert(id, size)
			wantEv, wantOK := ref.insert(id, size)
			if gotOK != wantOK || len(gotEv) != len(wantEv) {
				t.Fatalf("op %d: insert(%d) mismatch: %v/%v vs %v/%v",
					op, id, gotEv, gotOK, wantEv, wantOK)
			}
			for i := range gotEv {
				if gotEv[i] != wantEv[i] {
					t.Fatalf("op %d: eviction order differs: %v vs %v", op, gotEv, wantEv)
				}
			}
		case 2:
			if real.Touch(id) != ref.touch(id) {
				t.Fatalf("op %d: touch(%d) mismatch", op, id)
			}
		case 3:
			if real.Remove(id) != ref.remove(id) {
				t.Fatalf("op %d: remove(%d) mismatch", op, id)
			}
		}
		if real.Used() != ref.used || real.Len() != len(ref.order) {
			t.Fatalf("op %d: state diverged: used %d/%d len %d/%d",
				op, real.Used(), ref.used, real.Len(), len(ref.order))
		}
	}
	// Final recency order must match exactly.
	var got []LRUEntry
	real.ForEach(func(e LRUEntry) { got = append(got, e) })
	for i := range got {
		if got[i] != ref.order[i] {
			t.Fatalf("final order differs at %d: %v vs %v", i, got, ref.order)
		}
	}
}

// TestHeapStoreVictimOracle checks greedy victim selection against a naive
// full-sort oracle over many randomized states (all entries fresh so both
// views of the keys coincide).
func TestHeapStoreVictimOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 60; trial++ {
		s := NewCostAware(20000)
		now := float64(trial * 7)
		type entry struct {
			id   model.ObjectID
			size int64
			ncl  float64
		}
		var entries []entry
		for id := model.ObjectID(0); id < 60; id++ {
			d := mkDesc(id, int64(100+rng.Intn(500)), rng.Float64()*5, now-1, now)
			ev, ok := s.Insert(d, now)
			if !ok {
				continue
			}
			// Setup insertions can themselves evict: drop ghosts.
			for _, v := range ev {
				for i := range entries {
					if entries[i].id == v.ID {
						entries = append(entries[:i], entries[i+1:]...)
						break
					}
				}
			}
			entries = append(entries, entry{id, d.Size, d.NCL(now)})
		}
		need := int64(300 + rng.Intn(3000))
		// Oracle: ascending (NCL, id), take until freed ≥ need.
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].ncl != entries[j].ncl {
				return entries[i].ncl < entries[j].ncl
			}
			return entries[i].id < entries[j].id
		})
		free := s.Capacity() - s.Used()
		want := map[model.ObjectID]bool{}
		for _, e := range entries {
			if free >= need {
				break
			}
			want[e.id] = true
			free += e.size
		}
		ev, ok := s.Insert(mkDesc(999, need, 1, now), now)
		if !ok {
			t.Fatalf("trial %d: insert failed", trial)
		}
		if len(ev) != len(want) {
			t.Fatalf("trial %d: evicted %d, oracle %d", trial, len(ev), len(want))
		}
		for _, d := range ev {
			if !want[d.ID] {
				t.Fatalf("trial %d: evicted %d not in oracle set", trial, d.ID)
			}
		}
		s.checkInvariants()
	}
}

// refGDS is a naive GreedyDual-Size oracle.
type refGDS struct {
	capacity int64
	used     int64
	inflate  float64
	entries  map[model.ObjectID]*refGDSEntry
}

type refGDSEntry struct {
	size int64
	cost float64
	h    float64
}

func (r *refGDS) minEntry() (model.ObjectID, *refGDSEntry) {
	var bestID model.ObjectID
	var best *refGDSEntry
	for id, e := range r.entries {
		if best == nil || e.h < best.h || (e.h == best.h && id < bestID) {
			bestID, best = id, e
		}
	}
	return bestID, best
}

func (r *refGDS) insert(id model.ObjectID, size int64, cost float64) bool {
	if size > r.capacity {
		return false
	}
	if _, dup := r.entries[id]; dup {
		return false
	}
	for r.used+size > r.capacity {
		vid, v := r.minEntry()
		r.inflate = v.h
		delete(r.entries, vid)
		r.used -= v.size
	}
	r.entries[id] = &refGDSEntry{size: size, cost: cost, h: r.inflate + cost/float64(size)}
	r.used += size
	return true
}

func (r *refGDS) touch(id model.ObjectID) bool {
	e, ok := r.entries[id]
	if !ok {
		return false
	}
	e.h = r.inflate + e.cost/float64(e.size)
	return true
}

func TestGDSModelBased(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	real := NewGreedyDualSize(2000)
	ref := &refGDS{capacity: 2000, entries: map[model.ObjectID]*refGDSEntry{}}
	for op := 0; op < 20000; op++ {
		id := model.ObjectID(rng.Intn(30))
		switch rng.Intn(3) {
		case 0, 1:
			size := int64(100 + int(id)*31%500)
			cost := float64(1 + int(id)%7)
			_, gotOK := real.Insert(id, size, cost)
			wantOK := ref.insert(id, size, cost)
			if gotOK != wantOK {
				t.Fatalf("op %d: insert(%d) ok %v vs %v", op, id, gotOK, wantOK)
			}
		case 2:
			if real.Touch(id) != ref.touch(id) {
				t.Fatalf("op %d: touch(%d) mismatch", op, id)
			}
		}
		if real.Used() != ref.used || real.Len() != len(ref.entries) {
			t.Fatalf("op %d: state diverged used=%d/%d len=%d/%d",
				op, real.Used(), ref.used, real.Len(), len(ref.entries))
		}
		if real.Inflation() != ref.inflate {
			t.Fatalf("op %d: inflation %v vs %v", op, real.Inflation(), ref.inflate)
		}
	}
	for id := model.ObjectID(0); id < 30; id++ {
		if _, ok := ref.entries[id]; ok != real.Contains(id) {
			t.Fatalf("final contents differ at %d", id)
		}
	}
}

// refStore is a deliberately naive HeapStore: entries in a slice, every
// re-key applied at once, and victims found by sorting the whole slice
// again for each one. It shares only the store's cached-key semantics —
// an entry's key is what the key function returned the last time the
// entry was inserted, touched, given a penalty, swept, or surfaced as the
// minimum of a selection — so any difference in victim order is the heap's.
// Its keys come from Descriptor.NCL and Freq, not from the store's own key
// evaluation. It keeps descriptors of its own, since evaluating a key moves
// the window's estimate time as a side effect.
type refStore struct {
	capacity, used   int64
	unit             bool
	kind             keyKind
	aging, lastSweep float64
	entries          []*refEntry
	selection        int
}

type refEntry struct {
	d    *Descriptor
	key  float64
	seen int // selection that last refreshed this entry
}

func (r *refStore) size(d *Descriptor) int64 {
	if r.unit {
		return 1
	}
	return d.Size
}

func (r *refStore) key(d *Descriptor, now float64) float64 {
	if r.kind == freqKey {
		return d.Freq(now)
	}
	return d.NCL(now)
}

func (r *refStore) find(id model.ObjectID) *refEntry {
	for _, e := range r.entries {
		if e.d.ID == id {
			return e
		}
	}
	return nil
}

func (r *refStore) sweep(now float64) {
	if r.aging <= 0 || now-r.lastSweep < r.aging {
		return
	}
	r.lastSweep = now
	for _, e := range r.entries {
		e.key = r.key(e.d, now)
	}
}

func (r *refStore) touch(id model.ObjectID, now float64) bool {
	r.sweep(now)
	e := r.find(id)
	if e == nil {
		return false
	}
	e.d.Window.Record(now)
	e.key = r.key(e.d, now)
	return true
}

func (r *refStore) setMissPenalty(id model.ObjectID, m, now float64) bool {
	r.sweep(now)
	e := r.find(id)
	if e == nil {
		return false
	}
	e.d.missPenalty = m
	e.key = r.key(e.d, now)
	return true
}

// victims returns the greedy victim sequence for need, leaving every entry
// in place.
func (r *refStore) victims(need int64, now float64) ([]*refEntry, bool) {
	if need > r.capacity {
		return nil, false
	}
	free := r.capacity - r.used
	r.selection++
	pool := append([]*refEntry(nil), r.entries...)
	var out []*refEntry
	for free < need {
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].key != pool[j].key {
				return pool[i].key < pool[j].key
			}
			return pool[i].d.ID < pool[j].d.ID
		})
		e := pool[0]
		if e.seen != r.selection {
			// A minimum surfacing for the first time in this
			// selection has its key refreshed; it stays a victim
			// unless some other remaining key is now strictly lower.
			e.seen = r.selection
			if k := r.key(e.d, now); k != e.key {
				e.key = k
				lower := false
				for _, o := range pool[1:] {
					lower = lower || o.key < k
				}
				if lower {
					continue
				}
			}
		}
		pool = pool[1:]
		out = append(out, e)
		free += r.size(e.d)
	}
	return out, true
}

func (r *refStore) costLoss(size int64, now float64) (float64, bool) {
	r.sweep(now)
	vs, ok := r.victims(size, now)
	if !ok {
		return math.Inf(1), false
	}
	loss := 0.0
	for _, e := range vs {
		loss += e.d.CostLoss(now)
	}
	return loss, true
}

func (r *refStore) drop(e *refEntry) {
	for i := range r.entries {
		if r.entries[i] == e {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			r.used -= r.size(e.d)
			return
		}
	}
}

func (r *refStore) insert(d *Descriptor, now float64) ([]*refEntry, bool) {
	if r.find(d.ID) != nil {
		return nil, false
	}
	r.sweep(now)
	vs, ok := r.victims(r.size(d), now)
	if !ok {
		return nil, false
	}
	for _, e := range vs {
		r.drop(e)
	}
	r.entries = append(r.entries, &refEntry{d: d, key: r.key(d, now)})
	r.used += r.size(d)
	return vs, true
}

func (r *refStore) remove(id model.ObjectID) bool {
	e := r.find(id)
	if e != nil {
		r.drop(e)
	}
	return e != nil
}

// Encoding of a HeapStore op sequence, shared by the differential test and
// the fuzz target. Byte 0 picks the store, its sweep interval and whether
// the selection epoch wraps mid-run; every following triple is one op:
// {op | step<<3, id, arg}.
const (
	heapOpIDs    = 48   // object IDs in play
	heapOpBytes  = 2000 // capacity of the byte-counted stores
	heapOpUnits  = 12   // capacity of the entry-counted store
	heapOpMaxOps = 4096

	heapOpWrapEvery = 4 // ops between epoch wraps, in the wrapping configs
)

var (
	// Time steps: mostly none or small, so that many descriptors share an
	// estimate exactly; a few long enough that, summed over a run,
	// `now` crosses the 600 s aging interval many times and keys go stale
	// between sweeps.
	heapOpSteps = [8]float64{0, 0, 0, 0.5, 3, 20, 90, 400}
	// Estimates only decay, so under a non-negative penalty a refreshed
	// minimum is still the minimum. The negative one makes an NCL key rise
	// with age: the one way a stale minimum, once refreshed, has to go back.
	heapOpPenalties = [4]float64{0, -1, 1, 2}
)

func heapOpSize(arg byte) int64 {
	if arg == 255 {
		return heapOpBytes + 1 // can never fit
	}
	return int64(100 * (1 + int(arg>>2)%6))
}

// runHeapOps drives a HeapStore and the reference through the encoded ops
// and fails on the first observable difference. It returns how many full
// sweeps and how many evictions the run saw.
func runHeapOps(t *testing.T, data []byte) (sweeps, evictions int) {
	t.Helper()
	if len(data) == 0 {
		return 0, 0
	}
	var s *HeapStore
	switch data[0] % 3 {
	case 0:
		s = NewCostAware(heapOpBytes)
	case 1:
		s = NewLFU(heapOpBytes)
	default:
		s = NewDescriptorLFU(heapOpUnits)
	}
	if data[0]/3%2 == 1 {
		// Sweep less often than estimates expire, so that most minima
		// surface stale and are refreshed inside the selection.
		s.SetAgingInterval(4 * s.aging)
	}
	wrap := data[0]/6%2 == 1
	ref := &refStore{capacity: s.capacity, unit: s.unit, kind: s.kind, aging: s.aging}
	now := 0.0
	var slots []*Descriptor // the heap's entries by slot, before a CostLoss
	ops := (len(data) - 1) / 3
	if ops > heapOpMaxOps {
		ops = heapOpMaxOps
	}
	for i := 0; i < ops; i++ {
		if wrap && i%heapOpWrapEvery == 0 && s.epoch < epochMask-1 {
			// Forward to two selections short of the 31-bit epoch wrap,
			// again and again: entries that surfaced in the last cycle's
			// low epochs are still resident when the counter comes round
			// to those values in the next.
			s.epoch = epochMask - 1
		}
		b := data[1+3*i : 4+3*i]
		op, id, arg := b[0]&7, model.ObjectID(b[1]%heapOpIDs), b[2]
		now += heapOpSteps[b[0]>>3&7]
		m := heapOpPenalties[arg&3]
		swept := s.lastSweep
		switch op {
		case 0, 1, 2: // insert a one-reference descriptor
			wantEv, wantOK := ref.insert(mkDesc(id, heapOpSize(arg), m, now), now)
			// On the entry-counted store, op 2 admits in place when the
			// store is full: its one victim becomes the new entry, held to
			// the reference by the entry check below.
			if op == 2 && s.unit && s.Reuse(id, heapOpSize(arg), freq.DefaultK, m, now) {
				if !wantOK || len(wantEv) != 1 {
					t.Fatalf("op %d: Reuse(%d) admitted; reference evicts %d, %v", i, id, len(wantEv), wantOK)
				}
				evictions++
				break
			}
			ev, ok := s.Insert(mkDesc(id, heapOpSize(arg), m, now), now)
			if ok != wantOK || len(ev) != len(wantEv) {
				t.Fatalf("op %d: Insert(%d) = %v, %v; reference evicts %d, %v", i, id, ids(ev), ok, len(wantEv), wantOK)
			}
			for j, d := range ev {
				if d.ID != wantEv[j].d.ID || d.EvictionKey() != wantEv[j].key || d.InStore() {
					t.Fatalf("op %d: Insert(%d) victim %d is %d at key %v (in store: %v); reference %d at key %v",
						i, id, j, d.ID, d.EvictionKey(), d.InStore(), wantEv[j].d.ID, wantEv[j].key)
				}
			}
			evictions += len(ev)
		case 3:
			if got, want := s.Touch(id, now) != nil, ref.touch(id, now); got != want {
				t.Fatalf("op %d: Touch(%d) = %v, reference %v", i, id, got, want)
			}
		case 4:
			if got, want := s.SetMissPenalty(id, m, now), ref.setMissPenalty(id, m, now); got != want {
				t.Fatalf("op %d: SetMissPenalty(%d) = %v, reference %v", i, id, got, want)
			}
		case 5:
			d := s.Remove(id)
			if want := ref.remove(id); (d != nil) != want || (d != nil && d.InStore()) {
				t.Fatalf("op %d: Remove(%d) = %v, reference %v", i, id, d, want)
			}
		default: // CostLoss peeks: it may re-key, but moves no slot unless it sweeps
			clean := len(s.dirty) == 0
			slots = slots[:0]
			for j := range s.h {
				slots = append(slots, s.h[j].d)
			}
			loss, ok := s.CostLoss(heapOpSize(arg), now)
			wantLoss, wantOK := ref.costLoss(heapOpSize(arg), now)
			if ok != wantOK || loss != wantLoss {
				t.Fatalf("op %d: CostLoss = %v, %v; reference %v, %v", i, loss, ok, wantLoss, wantOK)
			}
			for j, d := range slots {
				if clean && len(s.dirty) == 0 && s.lastSweep == swept && d.heapIndex != int32(j) {
					t.Fatalf("op %d: CostLoss changed no key but moved entry %d from slot %d to %d", i, d.ID, j, d.heapIndex)
				}
			}
		}
		for _, probe := range []model.ObjectID{id, rootID(s)} {
			k, ok := s.MinKeyExcluding(probe)
			if wantK, wantOK := minKeyScan(s, probe); k != wantK || ok != wantOK {
				t.Fatalf("op %d: MinKeyExcluding(%d) = %v, %v; the scan reads %v, %v", i, probe, k, ok, wantK, wantOK)
			}
		}
		if s.lastSweep != swept {
			sweeps++
		}
		s.checkInvariants()
		if s.Used() != ref.used || s.Len() != len(ref.entries) {
			t.Fatalf("op %d: used %d len %d; reference used %d len %d", i, s.Used(), s.Len(), ref.used, len(ref.entries))
		}
		for _, e := range ref.entries {
			if d := s.Get(e.d.ID); d == nil {
				t.Fatalf("op %d: entry %d is gone; reference holds it at key %v", i, e.d.ID, e.key)
			} else if d.EvictionKey() != e.key {
				t.Fatalf("op %d: entry %d sorts under %v, in the reference under %v", i, e.d.ID, d.EvictionKey(), e.key)
			}
		}
	}
	return sweeps, evictions
}

// minKeyScan is MinKeyExcluding read from every entry's descriptor.
func minKeyScan(s *HeapStore, id model.ObjectID) (best float64, found bool) {
	for i := range s.h {
		if k := s.h[i].d.key; s.h[i].id != id && (!found || k < best) {
			best, found = k, true
		}
	}
	return best, found
}

// rootID is the ID in the root slot, the one MinKeyExcluding answers from
// the root's children; -1 when the store is empty.
func rootID(s *HeapStore) model.ObjectID {
	if len(s.h) == 0 {
		return -1
	}
	return s.h[0].id
}

// heapOpCases are the differential test's inputs and the fuzz target's seed
// corpus: seeded random op strings for each of the three store kinds at
// both sweep intervals.
func heapOpCases() [][]byte {
	var cases [][]byte
	for config := byte(0); config < 6; config++ {
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(100*int64(config) + seed))
			data := make([]byte, 1+3*3000)
			rng.Read(data)
			data[0] = config
			cases = append(cases, data)
		}
	}
	return cases
}

// TestHeapStoreDifferential holds the slot heap to the reference on victim
// order (not just victim sets), CostLoss values and every entry's effective
// key, across byte-, LFU- and entry-counted stores, with time advancing
// through many aging intervals and most keys exactly tied.
func TestHeapStoreDifferential(t *testing.T) {
	for _, data := range heapOpCases() {
		sweeps, evictions := runHeapOps(t, data)
		if sweeps < 5 || evictions < 100 {
			t.Fatalf("store config %d: only %d sweeps and %d evictions — the case does not exercise aging", data[0], sweeps, evictions)
		}
	}
}

// TestHeapStoreEpochWrap is the differential test with every store's
// selection epoch moved to just below the wrap halfway through the run. The
// second half still evicts (each case evicts at least a hundred times over
// the whole run, and a selection evicts at most twenty), so the counter
// wraps; an entry whose epoch survived the wrap would skip the stale-minimum
// refresh the reference makes, and victim order or keys would differ.
func TestHeapStoreEpochWrap(t *testing.T) {
	for _, data := range heapOpCases() {
		data[0] += 6
		if _, evictions := runHeapOps(t, data); evictions < 100 {
			t.Fatalf("store config %d: only %d evictions", data[0], evictions)
		}
	}
}

// FuzzHeapStoreOps seeds from a prefix of each differential case: enough ops
// to fill the store and cross the aging interval dozens of times, short
// enough for the mutator (and its minimizer) to turn over quickly. Each
// prefix is seeded twice, the second time with the epoch wrapping mid-run.
func FuzzHeapStoreOps(f *testing.F) {
	for _, data := range heapOpCases() {
		f.Add(data[:1+3*256])
		wrapped := append([]byte(nil), data[:1+3*256]...)
		wrapped[0] += 6
		f.Add(wrapped)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runHeapOps(t, data) })
}
