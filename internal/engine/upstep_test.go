package engine

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/metrics"
	"cascade/internal/model"
)

// The differential test for the fused upstream step: two identical nodes
// are driven through one op sequence, one taking the upstream pass as a
// single UpStep, the other as LookupFresh followed — on anything but a hit —
// by UpMiss, the form every transport used before the fusion and a node
// with a disk tier still uses. Everything else (placements, passing
// responses, invalidations, time) is applied to both alike. After every op
// the two must agree on what the op returned, on every descriptor in the
// main store and the d-cache (identity, history, penalty, generation,
// eviction key), on the coherency view and on every exported metric.
//
// A byte string is an op sequence: byte 0 picks the coherency mode and the
// d-cache implementation, every following triple is one op
// {op | step<<3, id, arg}.
const (
	upOpIDs      = 24
	upOpBytes    = 1800 // main-store capacity: four to eighteen objects
	upOpDEntries = 8    // d-cache capacity, small enough to evict descriptors
	upOpLifetime = 30.0 // ModeTTL copy lifetime
	upOpMaxOps   = 4096
)

// Time steps: mostly none or small, so copies live long enough to be hit;
// one op in 32 jumps past the TTL lifetime instead (the expire op), and the
// sum crosses the stores' 600 s aging sweep several times a case.
var upOpSteps = [8]float64{0, 0, 0, 0.1, 0.25, 0.5, 1, 2}

func upOpSize(id model.ObjectID) int64 { return int64(100 * (1 + int(id)%4)) }

// upSide is one of the two nodes with everything it reports into.
type upSide struct {
	st   nodeState
	reg  *metrics.Registry
	view *coherency.NodeView
}

func newUpSide(mode coherency.Mode, stacks bool) *upSide {
	s := &upSide{reg: metrics.NewRegistry()}
	dfac := dcache.NewFactory
	if stacks {
		dfac = dcache.NewLRUStacksFactory
	}
	nl := metrics.L("node", "7")
	ledger := audit.NewLedger()
	ledger.RegisterNode(s.reg, 7, nl)
	s.st = nodeState{
		Node:   7,
		Store:  cache.NewCostAware(upOpBytes),
		DCache: dfac(upOpDEntries),
		Pool:   &DescPool{},
		Audit:  audit.New(s.reg, nl),
		Ledger: ledger,
	}
	s.st.Pool.Attach(s.st.DCache)
	if mode != coherency.ModeNone {
		s.view = coherency.NewNodeView(mode, upOpLifetime)
		s.view.SetMetrics(coherency.NewMetrics(s.reg, nl))
		s.st.Coh = s.view
	}
	return s
}

// state renders everything observable about the side: descriptors by object
// ID in both stores with their eviction keys, the coherency view, and the
// metrics registry's scrape.
func (s *upSide) state(t *testing.T) (descs []string, scrape string) {
	t.Helper()
	render := func(where string, id model.ObjectID, d *cache.Descriptor) {
		if d == nil {
			return
		}
		snap := d.Snapshot()
		descs = append(descs, where+" "+strconv.Itoa(int(id))+" key="+strconv.FormatFloat(d.EvictionKey(), 'g', -1, 64)+
			" mp="+strconv.FormatFloat(snap.MissPenalty, 'g', -1, 64)+" gen="+strconv.FormatUint(snap.Gen, 10)+
			" size="+strconv.FormatInt(snap.Size, 10)+" times="+floats(snap.AccessTimes))
	}
	for id := model.ObjectID(0); id < upOpIDs; id++ {
		render("store", id, s.st.Store.Get(id))
		render("dcache", id, s.st.DCache.Get(id))
	}
	if s.view != nil {
		descs = append(descs, "cursor="+strconv.FormatUint(s.view.Cursor(), 10))
		for id := model.ObjectID(0); id < upOpIDs; id++ {
			if f := s.view.Floor(id); f != 0 {
				descs = append(descs, "floor "+strconv.Itoa(int(id))+"="+strconv.FormatUint(f, 10))
			}
		}
	}
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return descs, buf.String()
}

func floats(v []float64) string {
	var b []byte
	for _, f := range v {
		b = strconv.AppendFloat(append(b, ','), f, 'g', -1, 64)
	}
	return string(b)
}

func evictedIDs(ds []*cache.Descriptor) []model.ObjectID {
	out := make([]model.ObjectID, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	return out
}

// runUpOps drives the two sides through the encoded ops and fails on the
// first difference. It reports how many gets hit, missed with a candidate,
// self-healed (stale or expired), and how many placements evicted.
func runUpOps(t *testing.T, data []byte) (hits, candidates, healed, evictions int) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	mode := coherency.Mode(data[0] % 4)
	fused, split := newUpSide(mode, data[0]/4%2 == 1), newUpSide(mode, data[0]/4%2 == 1)
	now := 0.0
	var gens [upOpIDs]uint64 // the origin's generation per object
	var seq uint64           // the origin's invalidation-log head
	ops := (len(data) - 1) / 3
	if ops > upOpMaxOps {
		ops = upOpMaxOps
	}
	for i := 0; i < ops; i++ {
		b := data[1+3*i : 4+3*i]
		op, id, arg := b[0]&7, model.ObjectID(b[1]%upOpIDs), b[2]
		if b[0]>>3 == 31 {
			now += upOpLifetime + 1
		} else {
			now += upOpSteps[b[0]>>3&7]
		}
		size, mp, link := upOpSize(id), float64(arg&3), 0.5+float64(arg>>2&3)
		switch op {
		case 0, 1, 2, 3: // get: the request passes this node on its way up
			var floor uint64
			if mode == coherency.ModeCAS {
				floor = gens[id]
			}
			if arg >= 192 {
				size = 0 // a transport that learns the size on the way down
			}
			q := Req{Obj: id, FloorObj: id, Size: size, Now: now}
			p, cand := fused.st.UpStep(&q, fused.st.readFloor(id, floor), false, nil, false, int(arg&7), link, false)
			res := p.LookupResult
			want := split.st.LookupFresh(id, now, floor)
			var wantCand Candidate
			if !want.Hit {
				wantCand = split.st.UpMiss(id, size, int(arg&7), link, now)
			}
			if res != want || cand != wantCand {
				t.Fatalf("op %d: UpStep(%d) = %+v, %+v; the two calls give %+v, %+v", i, id, res, cand, want, wantCand)
			}
			switch {
			case res.Hit:
				hits++
			case res.Stale || res.Expired:
				healed++
			case cand.Tag == TagCandidate:
				candidates++
			}
		case 4, 5: // place / pass: the response comes back down
			place := op == 4
			gen := gens[id]
			if arg >= 224 && gen > 0 {
				gen-- // a body that was overtaken in flight
			}
			got := fused.st.DownStepUnder(id, id, size, place, mp+link, gen, now, nil)
			want := split.st.DownStepUnder(id, id, size, place, mp+link, gen, now, nil)
			if got.MP != want.MP || got.Placed != want.Placed || got.PlaceFailed != want.PlaceFailed ||
				!reflect.DeepEqual(evictedIDs(got.Evicted), evictedIDs(want.Evicted)) {
				t.Fatalf("op %d: DownStep(%d, place=%v) = %+v, on the other side %+v", i, id, place, got, want)
			}
			evictions += len(got.Evicted)
		default: // invalidate: the origin's copy is rewritten
			gens[id]++
			seq++
			if arg&2 != 0 {
				break // and the news has not reached this node
			}
			inv := []coherency.Invalidation{{Seq: seq, Obj: id, Gen: gens[id]}}
			head := seq
			if arg&1 == 1 {
				head = 0 // an out-of-band push
			}
			if got, want := fused.st.ApplyInvalidations(inv, head, now), split.st.ApplyInvalidations(inv, head, now); got != want {
				t.Fatalf("op %d: ApplyInvalidations(%d) = %d, on the other side %d", i, id, got, want)
			}
		}
		gotDescs, gotScrape := fused.state(t)
		wantDescs, wantScrape := split.state(t)
		if !reflect.DeepEqual(gotDescs, wantDescs) {
			t.Fatalf("op %d (%d on %d): stores differ\nUpStep:    %q\ntwo calls: %q", i, op, id, gotDescs, wantDescs)
		}
		if gotScrape != wantScrape {
			t.Fatalf("op %d (%d on %d): metrics differ\nUpStep:\n%s\ntwo calls:\n%s", i, op, id, gotScrape, wantScrape)
		}
	}
	return
}

// upOpCases are the differential test's inputs and the fuzz target's seed
// corpus: a seeded random op string for every coherency mode over both
// d-cache implementations.
func upOpCases() [][]byte {
	var cases [][]byte
	for config := byte(0); config < 8; config++ {
		rng := rand.New(rand.NewSource(300 + int64(config)))
		data := make([]byte, 1+3*2500)
		rng.Read(data)
		data[0] = config
		cases = append(cases, data)
	}
	return cases
}

// TestUpStepMatchesTwoCalls holds nodeState.UpStep to LookupFresh followed
// by UpMiss in every coherency mode, and checks that the cases reach what
// they are for: hits, candidates with an eviction cost, evicting
// placements, and — where the mode has them — self-healed copies.
func TestUpStepMatchesTwoCalls(t *testing.T) {
	for _, data := range upOpCases() {
		hits, candidates, healed, evictions := runUpOps(t, data)
		mode := coherency.Mode(data[0] % 4)
		if hits < 50 || candidates < 50 || evictions < 50 {
			t.Fatalf("config %d: %d hits, %d candidates, %d evictions — the case does not exercise the step", data[0], hits, candidates, evictions)
		}
		// PSI never finds a stale copy on the way up: the invalidation that
		// raised the floor already dropped it.
		if (mode == coherency.ModeTTL || mode == coherency.ModeCAS) && healed < 10 {
			t.Fatalf("config %d (%v): only %d self-healed copies", data[0], mode, healed)
		}
	}
}

// FuzzUpStep seeds from a prefix of each differential case.
func FuzzUpStep(f *testing.F) {
	for _, data := range upOpCases() {
		f.Add(data[:1+3*200])
	}
	f.Fuzz(func(t *testing.T, data []byte) { runUpOps(t, data) })
}
