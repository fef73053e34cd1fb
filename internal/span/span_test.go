package span

import (
	"encoding/json"
	"math"
	"testing"

	"cascade/internal/model"
)

func TestCtxRoundTrip(t *testing.T) {
	c := Ctx{Trace: TraceID{Hi: 0xdeadbeef01020304, Lo: 0x05060708090a0b0c}, Parent: 0x1122334455667788}
	got, ok := ParseCtx(c.String())
	if !ok || got != c {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, c)
	}
	for _, bad := range []string{
		"", "abc",
		c.String()[:48],       // short
		c.String() + "0",      // long
		"zz" + c.String()[2:], // non-hex
		// valid shape but zero trace ID
		Ctx{Parent: 1}.String(),
	} {
		if _, ok := ParseCtx(bad); ok {
			t.Fatalf("ParseCtx(%q) accepted malformed input", bad)
		}
	}
}

func TestSampledDeterministicAndBounded(t *testing.T) {
	id := TraceID{Hi: 1, Lo: 2}
	if sampled(id, 0) {
		t.Fatal("rate 0 sampled a trace")
	}
	if !sampled(id, 1) {
		t.Fatal("rate 1 dropped a trace")
	}
	if sampled(id, 0.5) != sampled(id, 0.5) {
		t.Fatal("verdict not deterministic")
	}
	// The hash should keep roughly rate·n of n distinct IDs, minted the
	// way Begin mints them.
	tr := NewTracer(Policy{})
	kept := 0
	const n = 20000
	for i := 0; i < n; i++ {
		tc := tr.Begin(0, -1, 0)
		if sampled(tc.ID(), 0.1) {
			kept++
		}
		collect(tr, tc, 0, nil)
	}
	if frac := float64(kept) / n; math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("rate 0.1 kept %.3f of traces", frac)
	}
}

// collect drains a trace into one ring regardless of node.
func collect(tr *Tracer, t *Trace, now float64, r *Ring) {
	tr.Collect(t, now, func(model.NodeID) *Ring { return r })
}

func TestTracerTreeShape(t *testing.T) {
	tr := NewTracer(Policy{Rate: 1})
	r := NewRing(64)
	tc := tr.Begin(7, -1, 1.0)
	if tc.ID().IsZero() || tc.Root() == 0 {
		t.Fatal("Begin did not open a root span")
	}
	lk := tc.Start(PhaseLookup, 0, 0, tc.Root(), 1.0)
	tc.End(lk, 1.5)
	up := tc.Start(PhaseUp, 0, 0, tc.Root(), 1.5)
	dec := tc.Start(PhaseDecide, 1, 1, up, 2.0)
	tc.Annotate(up, 0.5, 2, 1) // an open, non-tail span is annotated in place
	tc.End(dec, 2.5)
	tc.End(up, 3.0)
	collect(tr, tc, 3.5, r)

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byPhase := map[Phase]Span{}
	for _, s := range spans {
		byPhase[s.Phase] = s
		if s.End < s.Start {
			t.Fatalf("span %v left open", s.Phase)
		}
	}
	root := byPhase[PhaseRequest]
	if root.Parent != 0 || root.End != 3.5 {
		t.Fatalf("root span wrong: %+v", root)
	}
	if byPhase[PhaseLookup].Parent != root.ID || byPhase[PhaseUp].Parent != root.ID {
		t.Fatal("lookup/up not parented on root")
	}
	if byPhase[PhaseDecide].Parent != byPhase[PhaseUp].ID {
		t.Fatal("decide not parented on up")
	}
	if u := byPhase[PhaseUp]; u.A != 0.5 || u.B != 2 || u.N != 1 {
		t.Fatalf("up span attributes lost: %+v", u)
	}
	if d := byPhase[PhaseDecide]; d.A != 0 || d.B != 0 || d.N != 0 {
		t.Fatalf("unannotated span carries attributes: %+v", d)
	}
}

func TestTailSamplingForcedKeep(t *testing.T) {
	tr := NewTracer(Policy{Rate: 0})
	r := NewRing(64)

	tc := tr.Begin(0, -1, 0)
	collect(tr, tc, 1, r)
	if r.Len() != 0 {
		t.Fatal("rate-0 trace kept without a flag")
	}

	tc = tr.Begin(0, -1, 0)
	tc.Force(FlagStale)
	collect(tr, tc, 1, r)
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Flags&FlagStale == 0 {
		t.Fatalf("forced trace not kept with flag: %+v", spans)
	}
}

func TestSlowThresholdForcesKeep(t *testing.T) {
	tr := NewTracer(Policy{Rate: 0, Slow: 0.5})
	r := NewRing(4)
	tc := tr.Begin(0, -1, 10.0)
	collect(tr, tc, 10.1, r) // fast: dropped
	if r.Len() != 0 {
		t.Fatal("fast trace kept at rate 0")
	}
	tc = tr.Begin(0, -1, 10.0)
	collect(tr, tc, 11.0, r) // 1s > 0.5s: kept, flagged slow
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Flags&flagSlow == 0 {
		t.Fatalf("slow trace not force-kept: %+v", spans)
	}
}

func TestJoinParentsOnCtx(t *testing.T) {
	tr := NewTracer(Policy{Rate: 1})
	r := NewRing(8)
	ctx := Ctx{Trace: TraceID{Hi: 3, Lo: 4}, Parent: 99}
	tc := tr.Join(ctx)
	if tc.Root() != 0 {
		t.Fatal("joined trace should have no root span")
	}
	lk := tc.Start(PhaseLookup, 2, 1, ctx.Parent, 5.0)
	tc.End(lk, 5.1)
	collect(tr, tc, 5.2, r)
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Trace != ctx.Trace || spans[0].Parent != 99 {
		t.Fatalf("joined span wrong: %+v", spans)
	}
	if tr.Join(Ctx{}) != nil {
		t.Fatal("Join accepted an invalid ctx")
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Span{ID: SpanID(i + 1)})
	}
	if r.Len() != 3 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", r.Len(), r.Dropped())
	}
	spans := r.Spans()
	if spans[0].ID != 3 || spans[2].ID != 5 {
		t.Fatalf("ring order wrong: %+v", spans)
	}
	snap := r.TakeSnapshot(9)
	if snap.Node != 9 || snap.Capacity != 3 || snap.Dropped != 2 || len(snap.Spans) != 3 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRingCapacityClamp(t *testing.T) {
	r := NewRing(0)
	r.Add(Event(PhaseCrash, 1, 1))
	r.Add(Event(PhaseRecover, 1, 2))
	if r.Len() != 1 || r.Dropped() != 1 || r.Spans()[0].Phase != PhaseRecover {
		t.Fatalf("NewRing(0) holds %d records (dropped %d), want the newest one", r.Len(), r.Dropped())
	}
}

// TestEventRecordsRetainInOrder: event records below capacity are all kept,
// oldest first, each with its object and time.
func TestEventRecordsRetainInOrder(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		e := Event(PhaseSpill, 1, float64(i))
		e.Obj = model.ObjectID(100 + i)
		r.Add(e)
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 5/0", r.Len(), r.Dropped())
	}
	for i, e := range r.Spans() {
		if e.Start != float64(i) || e.Obj != model.ObjectID(100+i) || e.Phase != PhaseSpill {
			t.Fatalf("record %d = %+v", i, e)
		}
	}
}

// TestEventRecordsRingWrap: past capacity the ring keeps the newest event
// records, oldest first, and counts every overwritten one, so a reader can
// tell exactly how much was lost.
func TestEventRecordsRingWrap(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		e := Event(PhaseMembership, 0, float64(i))
		e.Obj = model.ObjectID(i)
		r.Add(e)
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", r.Len(), r.Dropped())
	}
	for i, e := range r.Spans() {
		if e.Start != float64(6+i) || e.Obj != model.ObjectID(6+i) {
			t.Fatalf("record %d = %+v, want obj %d", i, e, 6+i)
		}
	}
}

// TestNilRingEventSafe: a node without a ring takes event records and
// reports nothing, its snapshot naming the node with zero capacity.
func TestNilRingEventSafe(t *testing.T) {
	var r *Ring
	r.Add(Event(PhaseCrash, 3, 1))
	if r.Len() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil ring reported state")
	}
	s := r.TakeSnapshot(3)
	if s.Node != 3 || s.Capacity != 0 || len(s.Spans) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

// TestPhaseNamesRoundTrip: every phase, the event phases included, has its
// own schema name and survives a Span JSON round trip by it.
func TestPhaseNamesRoundTrip(t *testing.T) {
	seen := map[string]Phase{}
	for p := Phase(0); p < numPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown" {
			t.Fatalf("phase %d has no schema name", p)
		}
		if q, dup := seen[name]; dup {
			t.Fatalf("phases %d and %d share the name %q", q, p, name)
		}
		seen[name] = p
		data, err := json.Marshal(Span{Trace: TraceID{Lo: 1}, ID: 1, Phase: p})
		if err != nil {
			t.Fatal(err)
		}
		var out Span
		if err := json.Unmarshal(data, &out); err != nil || out.Phase != p {
			t.Fatalf("phase %q: round trip gave %v (%v)", name, out.Phase, err)
		}
	}
	if numPhases.String() != "unknown" {
		t.Fatal("an out-of-range phase has a schema name")
	}
}

// TestEventJSONRoundTrip: an event record no request caused — zero trace,
// zero ID — round-trips, its object and payload with it.
func TestEventJSONRoundTrip(t *testing.T) {
	in := Event(PhaseInvalidate, 2, 7.5)
	in.Obj, in.A, in.B, in.N = 11, 3, 9, 1
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in || out.ID != 0 || !out.Trace.IsZero() || out.Start != out.End {
		t.Fatalf("round trip: got %+v want %+v\n%s", out, in, data)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{
		Trace:  TraceID{Hi: 0xabc, Lo: 0xdef},
		ID:     42,
		Parent: 7,
		Phase:  PhaseDown,
		Flags:  FlagError,
		Node:   3,
		Hop:    2,
		Start:  1.25,
		End:    2.5,
		A:      1.0 / 3.0,
		B:      2,
		N:      DownPlaced,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
	var snap Snapshot
	blob, err := json.Marshal(Snapshot{Node: 1, Capacity: 8, Spans: []Span{in}})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != 1 || snap.Spans[0] != in {
		t.Fatalf("snapshot round trip: %+v", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var r *Ring
	tc := tr.Begin(0, 0, 0)
	if tc != nil || tr.Join(Ctx{Trace: TraceID{Hi: 1}}) != nil {
		t.Fatal("nil tracer returned a trace")
	}
	if tc.Start(PhaseLookup, 0, 0, 0, 0) != 0 || tc.Root() != 0 || !tc.ID().IsZero() {
		t.Fatal("nil trace not inert")
	}
	tc.End(1, 0)
	tc.Annotate(1, 1, 1, 1)
	tc.Force(FlagError)
	if tc.Forced() {
		t.Fatal("nil trace reports forced")
	}
	tr.Collect(tc, 0, func(model.NodeID) *Ring { return r })
	r.Add(Span{})
	if r.Len() != 0 || r.Spans() != nil || r.Dropped() != 0 {
		t.Fatal("nil ring not inert")
	}
	r.Reset()
	if s := r.TakeSnapshot(2); s.Node != 2 || s.Spans != nil {
		t.Fatalf("nil ring snapshot: %+v", s)
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.Begin(0, -1, 0)
		id := tc.Start(PhaseLookup, 0, 0, 0, 0)
		tc.End(id, 0)
		tr.Collect(tc, 0, nil)
	}
}

func BenchmarkTraceSampled(b *testing.B) {
	tr := NewTracer(Policy{Rate: 0.01})
	r := NewRing(256)
	rings := func(model.NodeID) *Ring { return r }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.Begin(0, -1, 0)
		parent := tc.Root()
		for h := 0; h < 3; h++ {
			lk := tc.Start(PhaseLookup, model.NodeID(h), h, parent, 0)
			tc.End(lk, 0)
			up := tc.Start(PhaseUp, model.NodeID(h), h, parent, 0)
			parent = up
		}
		tr.Collect(tc, 0, rings)
	}
}
