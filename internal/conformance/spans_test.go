package conformance

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"cascade/internal/model"
	"cascade/internal/runtime"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/span"
	"cascade/internal/trace"
)

// protocolPhase reports whether a phase belongs to the protocol-tree
// conformance scope: the four phases every incarnation must emit
// identically for the same request. The data-plane phases (body, spill,
// promote) and coherency are transport-specific embellishments; the root
// request span anchors the tree but is compared via the "root" parent
// label rather than as a node of its own.
func protocolPhase(p span.Phase) bool {
	return p == span.PhaseLookup || p == span.PhaseUp || p == span.PhaseDecide || p == span.PhaseDown
}

// canonicalTree reduces one trace's span set to a transport-independent
// form: each protocol-phase span rendered as
// "phase@node/hop[a,b,n]<-parent" — its three attributes included, floats
// in their shortest exact form, so equal strings mean equal bits — where
// parent is the nearest protocol-phase ancestor ("root" when the chain tops
// out at the request span), the lines sorted and joined. Two incarnations
// emitted the same protocol tree, with the same piggybacked records, DP
// outputs and penalty counters, for a request iff the canonical forms are
// equal.
func canonicalTree(spans []span.Span) (string, error) {
	byID := make(map[span.SpanID]span.Span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			return "", fmt.Errorf("duplicate span id %s", s.ID)
		}
		byID[s.ID] = s
	}
	label := func(s span.Span) string {
		return fmt.Sprintf("%s@%d/%d", s.Phase, s.Node, s.Hop)
	}
	var parts []string
	for _, s := range spans {
		if !protocolPhase(s.Phase) {
			continue
		}
		if s.End < s.Start {
			return "", fmt.Errorf("span %s (%s) never closed", s.ID, label(s))
		}
		parent := "root"
		for pid := s.Parent; pid != 0; {
			p, ok := byID[pid]
			if !ok {
				return "", fmt.Errorf("span %s (%s): dangling parent %s", s.ID, label(s), pid)
			}
			if protocolPhase(p.Phase) {
				parent = label(p)
				break
			}
			pid = p.Parent
		}
		parts = append(parts, fmt.Sprintf("%s[%v,%v,%d]<-%s", label(s), s.A, s.B, s.N, parent))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";"), nil
}

// gatherTraces merges per-node span snapshots into one map keyed by trace
// ID, failing the run if any ring overflowed (a dropped span would make
// the tree comparison vacuous).
func gatherTraces(t *testing.T, incarnation string, snaps []span.Snapshot) map[span.TraceID][]span.Span {
	t.Helper()
	traces := map[span.TraceID][]span.Span{}
	for _, snap := range snaps {
		if snap.Dropped != 0 {
			t.Fatalf("%s: node %d span ring dropped %d spans; raise the test's ring capacity",
				incarnation, snap.Node, snap.Dropped)
		}
		for _, s := range snap.Spans {
			traces[s.Trace] = append(traces[s.Trace], s)
		}
	}
	return traces
}

// canonicalForms validates every trace of one incarnation — exactly one
// root request span, all parent links resolving within the trace, all
// protocol spans closed — and returns the sorted canonical tree forms.
func canonicalForms(t *testing.T, incarnation string, traces map[span.TraceID][]span.Span) []string {
	t.Helper()
	forms := make([]string, 0, len(traces))
	for id, spans := range traces {
		roots := 0
		for _, s := range spans {
			if s.Trace != id {
				t.Fatalf("%s: trace %s holds a span of trace %s", incarnation, id, s.Trace)
			}
			if s.Phase == span.PhaseRequest {
				roots++
				if s.Parent != 0 {
					t.Fatalf("%s: trace %s root span has parent %s", incarnation, id, s.Parent)
				}
			}
		}
		if roots != 1 {
			t.Fatalf("%s: trace %s has %d request spans, want exactly 1", incarnation, id, roots)
		}
		form, err := canonicalTree(spans)
		if err != nil {
			t.Fatalf("%s: trace %s: %v", incarnation, id, err)
		}
		forms = append(forms, form)
	}
	sort.Strings(forms)
	return forms
}

// TestSpanTreesConform replays one trace through all three incarnations
// with span tracing at rate 1 and requires that every request produce the
// same protocol-phase span tree (lookup→up→decide→down per hop, identical
// nodes, hops and parent links) carrying the same attributes — f, l and the
// §2.4 tag on every up span, predicted Δcost and chosen count on every
// decide span, the observed miss-penalty counter, victim count and outcome
// on every down span — in the simulator scheme, the cluster and a live
// gateway chain — plus one unique trace ID per request and no dangling
// parents anywhere. Run under -race (make conformance): the gateway's HTTP
// handlers are concurrent even for a serial request stream.
//
// The origin's decide span is outside the comparison by construction on
// every incarnation: the gateway origin keeps it in its own ring
// (Origin.EnableSpans, not enabled here; httpgw's TestOriginDecideSpan
// checks it against the response headers), and the simulator and cluster
// stamp origin-side decides with model.NoNode, which no per-node ring
// retains.
func TestSpanTreesConform(t *testing.T) {
	cases := []struct {
		name       string
		upCost     []float64
		originLink bool
		rel        float64
	}{
		{name: "hierarchy", upCost: []float64{1, 2, 4, 8}, originLink: true, rel: 0.02},
		{name: "enroute", upCost: []float64{1, 3, 0}, originLink: false, rel: 0.01},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const objSize = 1000 // uniform: all cost scalings collapse to 1
			const ringCap = 1 << 13
			gen := trace.NewGenerator(trace.Config{
				Objects:  150,
				Servers:  8,
				Clients:  20,
				Requests: 1200,
				Duration: 3600,
				MinSize:  objSize,
				MaxSize:  objSize,
				Seed:     47,
			})
			cat := gen.Catalog()
			avg := cat.AvgSize()
			net := newChainNet(tc.upCost, tc.originLink)
			capacity := int64(tc.rel * float64(cat.TotalBytes))
			dEntries := int(3 * float64(capacity) / avg)

			// Incarnation 1: the replay simulator, spans attached the way
			// `cascadesim -span-dump` attaches them.
			sch := scheme.NewCoordinated()
			sch.SetSpans(span.NewTracer(span.Policy{Rate: 1}), ringCap)
			simr, err := sim.New(sim.Config{
				Scheme: sch, Network: net, Catalog: cat,
				RelativeCacheSize: tc.rel, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Incarnation 2: the cluster.
			clk := &logicalClock{}
			cluster, err := runtime.NewCluster(runtime.Config{
				Network:       net,
				CacheBytes:    capacity,
				DCacheEntries: dEntries,
				AvgObjectSize: avg,
				Clock:         clk.Now,
				SpanCapacity:  ringCap,
				SpanSample:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			// Incarnation 3: the HTTP gateway chain, every hop tracing, so
			// the span context (X-Cascade-TraceCtx) and every attribute's
			// source value cross the wire.
			gwBase, gwNodes, _, closeGW := closableGatewayChain(t, tc.upCost, capacity, dEntries, objSize, clk.Now)
			for _, n := range gwNodes {
				n.EnableSpans(span.Policy{Rate: 1}, ringCap)
			}
			client := &http.Client{}

			ctx := context.Background()
			nreq := 0
			for {
				req, ok := gen.Next()
				if !ok {
					break
				}
				nreq++
				clk.Set(req.Time)
				simr.Process(req)
				if _, err := cluster.Get(ctx, 0, model.NoNode, req.Object, req.Size); err != nil {
					t.Fatal(err)
				}
				gatewayGet(t, client, gwBase, req.Object)
			}

			// A hop emits its root span from a deferred tracer.Collect that
			// can run after the client already holds the body: wait for
			// every handler to return before reading the rings.
			closeGW()

			// Harvest every node's ring per incarnation and stitch by
			// trace ID — exactly how an operator reassembles a
			// distributed trace from /cascade/debug/spans dumps.
			simSnaps := make([]span.Snapshot, 0, len(tc.upCost))
			clSnaps := make([]span.Snapshot, 0, len(tc.upCost))
			gwSnaps := make([]span.Snapshot, 0, len(tc.upCost))
			for i := range tc.upCost {
				id := model.NodeID(i)
				simSnaps = append(simSnaps, sch.SpanRing(id).TakeSnapshot(id))
				clSnaps = append(clSnaps, cluster.DumpSpans(id))
				gwSnaps = append(gwSnaps, gwNodes[i].DumpSpans())
			}
			incarnations := []struct {
				name   string
				traces map[span.TraceID][]span.Span
			}{
				{name: "sim", traces: gatherTraces(t, "sim", simSnaps)},
				{name: "cluster", traces: gatherTraces(t, "cluster", clSnaps)},
				{name: "gateway", traces: gatherTraces(t, "gateway", gwSnaps)},
			}

			// One unique trace per request: rate-1 tail sampling retains
			// every trace, and the map key is the 128-bit trace ID, so
			// cardinality == request count proves both minting-per-request
			// and uniqueness.
			for _, inc := range incarnations {
				if len(inc.traces) != nreq {
					t.Fatalf("%s: %d traces retained for %d requests", inc.name, len(inc.traces), nreq)
				}
			}

			ref := canonicalForms(t, "sim", incarnations[0].traces)
			decides, downs := 0, 0
			for _, form := range ref {
				decides += strings.Count(form, "decide@")
				downs += strings.Count(form, "down@")
			}
			if decides == 0 || downs == 0 {
				t.Fatalf("vacuous workload: %d cache-served decide spans, %d down spans", decides, downs)
			}
			candidates, choosing, placements := 0, 0, 0
			for _, spans := range incarnations[0].traces {
				for _, s := range spans {
					switch {
					case s.Phase == span.PhaseUp && s.A > 0:
						candidates++
					case s.Phase == span.PhaseDecide && s.N > 0 && s.A > 0:
						choosing++
					case s.Phase == span.PhaseDown && s.N == span.DownPlaced:
						placements++
					}
				}
			}
			if candidates == 0 || choosing == 0 || placements == 0 {
				t.Fatalf("vacuous attributes: %d up spans with f > 0, %d decide spans choosing a cache, %d placing down spans",
					candidates, choosing, placements)
			}
			freq := func(forms []string) map[string]int {
				m := map[string]int{}
				for _, f := range forms {
					m[f]++
				}
				return m
			}
			refFreq := freq(ref)
			for _, inc := range incarnations[1:] {
				forms := canonicalForms(t, inc.name, inc.traces)
				got := freq(forms)
				for form, n := range refFreq {
					if got[form] != n {
						t.Errorf("%s: tree %q: %d traces, sim has %d", inc.name, form, got[form], n)
					}
				}
				for form, n := range got {
					if _, ok := refFreq[form]; !ok {
						t.Errorf("%s: tree %q: %d traces, sim has none", inc.name, form, n)
					}
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			t.Logf("%s: %d requests produced identical protocol span trees and attributes across all three incarnations (%d hit-served decides, %d of them choosing a cache; %d down steps, %d placing; %d up records with f > 0)",
				tc.name, nreq, decides, choosing, downs, placements, candidates)
		})
	}
}
