package scheme

import (
	"fmt"
	"testing"

	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// spansOf gathers one request's spans from every node ring, keyed by
// "phase@node".
func spansOf(t *testing.T, s *Coordinated, id span.TraceID) map[string]span.Span {
	t.Helper()
	out := map[string]span.Span{}
	for _, n := range s.SpanNodes() {
		for _, sp := range s.SpanRing(n).Spans() {
			if sp.Trace == id {
				out[fmt.Sprintf("%s@%d", sp.Phase, sp.Node)] = sp
			}
		}
	}
	return out
}

// TestCoordinatedTraceBothPasses drives the coordinated scheme with span
// tracing on and checks one request's trace against ground truth: the
// upward pass with each hop's piggybacked (f, l) record or §2.4 tag, the
// serving cache's decision with its predicted Δcost and chosen count, and
// the downward pass with the miss-penalty counter each hop observed — reset
// at the caching point — and the placement outcome.
func TestCoordinatedTraceBothPasses(t *testing.T) {
	s := NewCoordinated()
	// Node 0 is too small to ever hold the 100-byte object, so once it has a
	// descriptor it answers with the cannot-fit tag.
	budgets := Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 10)
	budgets[0] = NodeBudget{CacheBytes: 50, DCacheEntries: 10}
	s.Configure(budgets)
	s.SetSpans(span.NewTracer(span.Policy{Rate: 1}), 256)
	full := testPath()
	upper := Path{Nodes: []model.NodeID{2, 3}, UpCost: []float64{1, 1}}

	// A client attached at node 2 fetches the object twice: the second
	// fetch places it there. A client below node 0 then fetches it twice
	// through the whole path; node 2 serves both.
	s.Process(0, 42, 100, upper)
	if out := s.Process(10, 42, 100, upper); len(out.Placed) != 1 {
		t.Fatalf("warm-up did not place at node 2: %+v", out)
	}
	s.Process(20, 42, 100, full)
	out := s.Process(30, 42, 100, full)
	if out.HitIndex != 2 || !equalInts(out.Placed, []int{1}) {
		t.Fatalf("test premise broken: hit %d placed %v, want hit 2 placed [1]", out.HitIndex, out.Placed)
	}

	// The last request's trace is the one whose decide span chose a cache.
	var id span.TraceID
	for _, sp := range s.SpanRing(2).Spans() {
		if sp.Phase == span.PhaseDecide && sp.N == 1 {
			id = sp.Trace
		}
	}
	got := spansOf(t, s, id)

	up0, up1, dec := got["up@0"], got["up@1"], got["decide@2"]
	if up0.N != int(engine.TagCannotFit) || up0.A != 0 || up0.B != 0 {
		t.Errorf("up@0 = %+v, want the cannot-fit tag and no payload", up0)
	}
	if up1.N != int(engine.TagCandidate) || up1.A <= 0 || up1.B != 0 {
		t.Errorf("up@1 = %+v, want a candidate with f > 0 and l = 0 (empty cache)", up1)
	}
	// One candidate one link below the serving cache: Δcost = f·m − l = f.
	if dec.Hop != 2 || dec.N != 1 || dec.A != up1.A {
		t.Errorf("decide@2 = %+v, want 1 chosen at predicted Δcost %g", dec, up1.A)
	}
	if _, ok := got["up@2"]; ok {
		t.Error("the serving cache recorded an up span")
	}
	// Node 1 sees the counter at one link and places, resetting it; node 0
	// therefore sees one link again, not two.
	if d := got["down@1"]; d.A != 1 || d.B != 0 || d.N != span.DownPlaced {
		t.Errorf("down@1 = %+v, want penalty 1, no victims, placed", d)
	}
	if d := got["down@0"]; d.A != 1 || d.N != span.DownPass {
		t.Errorf("down@0 = %+v, want penalty 1 (reset at node 1) and a pass", d)
	}
	if up1.Parent != up0.ID || dec.Parent != up1.ID || got["down@1"].Parent != up1.ID {
		t.Errorf("passes not nested hop by hop: %+v", got)
	}

	// The request before it found no descriptor at either lower hop: §2.4
	// tags on the way up, nothing chosen, the counter accumulating
	// unreset on the way down.
	for _, sp := range s.SpanRing(2).Spans() {
		if sp.Phase == span.PhaseDecide && sp.N == 0 && sp.Start == 20 {
			id = sp.Trace
		}
	}
	got = spansOf(t, s, id)
	for _, k := range []string{"up@0", "up@1"} {
		if u := got[k]; u.ID == 0 || u.N != int(engine.TagNoDescriptor) || u.A != 0 {
			t.Errorf("%s = %+v, want the no-descriptor tag", k, u)
		}
	}
	if d1, d0 := got["down@1"], got["down@0"]; d1.A != 1 || d0.A != 2 || d1.N != span.DownPass || d0.N != span.DownPass {
		t.Errorf("unplaced response: down@1 %+v down@0 %+v, want penalties 1 then 2, both passes", d1, d0)
	}
}

// TestCoordinatedTracerDisabled pins the opt-in contract: without a span
// tracer Process records nothing, and tracing never changes the decision
// stream.
func TestCoordinatedTracerDisabled(t *testing.T) {
	a := NewCoordinated()
	a.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 10))
	b := NewCoordinated()
	b.Configure(Uniform([]model.NodeID{0, 1, 2, 3}, 1000, 10))
	b.SetSpans(span.NewTracer(span.Policy{Rate: 1}), 64)
	p := testPath()
	for i := 0; i < 10; i++ {
		oa := a.Process(float64(i), model.ObjectID(i%4), 100, p)
		ob := b.Process(float64(i), model.ObjectID(i%4), 100, p)
		if oa.HitIndex != ob.HitIndex || !equalInts(oa.Placed, ob.Placed) {
			t.Fatalf("request %d: tracing changed the decision: %+v vs %+v", i, oa, ob)
		}
	}
	if len(a.SpanNodes()) != 0 || a.SpanRing(0).Len() != 0 {
		t.Fatal("untraced scheme retained spans")
	}
	if b.SpanRing(0).Len() == 0 {
		t.Fatal("traced scheme retained nothing")
	}
}
