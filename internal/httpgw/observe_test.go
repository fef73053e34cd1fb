package httpgw

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/audit"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// tracedChain is a 10 kB-per-node chain with span tracing at rate 1 on
// every hop.
func tracedChain(t *testing.T, levels int) (string, []*Node, func(float64), func()) {
	t.Helper()
	return chainWith(t, levels, 10000, func(n *Node) { n.EnableSpans(span.Policy{Rate: 1}, 256) })
}

// testClock is a settable protocol clock, safe across handler goroutines.
func testClock() (clock func() float64, setNow func(float64)) {
	var mu sync.Mutex
	now := 0.0
	clock = func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	setNow = func(v float64) { mu.Lock(); now = v; mu.Unlock() }
	return clock, setNow
}

// tracesByStart stitches the nodes' span rings into per-request traces, the
// way an operator reassembles /cascade/debug/spans dumps, and returns each
// request's spans keyed "phase@node", requests in start order.
func tracesByStart(nodes []*Node) []map[string]span.Span {
	byTrace := map[span.TraceID]map[string]span.Span{}
	var order []span.TraceID
	for _, n := range nodes {
		for _, s := range n.DumpSpans().Spans {
			if byTrace[s.Trace] == nil {
				byTrace[s.Trace] = map[string]span.Span{}
			}
			byTrace[s.Trace][s.Phase.String()+"@"+strconv.Itoa(int(s.Node))] = s
			if s.Phase == span.PhaseRequest {
				order = append(order, s.Trace)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return byTrace[order[i]]["request@0"].Start < byTrace[order[j]]["request@0"].Start
	})
	out := make([]map[string]span.Span, len(order))
	for i, id := range order {
		out[i] = byTrace[id]
	}
	return out
}

// TestSpanAttrsBothPasses drives a 3-node chain (link costs 1, 2, 3 toward
// the origin) and reads both protocol passes of §2.3 back from the span
// rings: each hop's upward record — the §2.4 tag on a cold object, a real
// (f, l) once descriptors exist — and each hop's downward step with the
// miss-penalty counter it observed and what it did with the copy.
func TestSpanAttrsBothPasses(t *testing.T) {
	base, nodes, setNow, closeAll := tracedChain(t, 3)
	setNow(0)
	get(t, base, 7) // cold: every cache misses without a descriptor
	setNow(10)
	if resp, _ := get(t, base, 7); !reflect.DeepEqual(placedAt(t, resp.Header), []model.NodeID{0}) {
		t.Fatalf("test premise broken: second fetch decided %q, want a placement at the edge alone", resp.Header.Get(HeaderDecision))
	}
	closeAll()
	traces := tracesByStart(nodes)
	if len(traces) != 2 {
		t.Fatalf("stitched %d traces from 2 requests", len(traces))
	}

	wantPenalty := map[int]float64{2: 3, 1: 5, 0: 6} // links accumulate origin → client
	for req, tr := range traces {
		parent := tr["request@0"].ID
		for node := 0; node < 3; node++ {
			up := tr["up@"+strconv.Itoa(node)]
			down := tr["down@"+strconv.Itoa(node)]
			if up.ID == 0 || down.ID == 0 {
				t.Fatalf("request %d: node %d lacks an up or down span: %v", req, node, tr)
			}
			if up.Parent != parent || down.Parent != up.ID {
				t.Errorf("request %d node %d: passes not nested hop by hop (up %+v down %+v)", req, node, up, down)
			}
			parent = up.ID
			if req == 0 {
				if up.N != int(engine.TagNoDescriptor) || up.A != 0 || up.B != 0 {
					t.Errorf("cold up@%d = %+v, want the no-descriptor tag", node, up)
				}
			} else if up.N != int(engine.TagCandidate) || up.A <= 0 || up.B != 0 {
				t.Errorf("warm up@%d = %+v, want a candidate with f > 0 and l = 0", node, up)
			}
			wantN := span.DownPass
			if req == 1 && node == 0 {
				wantN = span.DownPlaced
			}
			if down.A != wantPenalty[node] || down.B != 0 || down.N != wantN {
				t.Errorf("request %d down@%d = %+v, want penalty %g outcome %d", req, node, down, wantPenalty[node], wantN)
			}
		}
		// The origin decided both; this chain's origin runs without
		// EnableSpans (TestOriginDecideSpan covers it with).
		for k := range tr {
			if strings.HasPrefix(k, "decide@") {
				t.Errorf("request %d: unexpected %s", req, k)
			}
		}
	}
}

// TestSpanAttrsLocalHit pins the short trace of a first-cache hit: lookup
// and the local, empty decision — no upward or downward pass.
func TestSpanAttrsLocalHit(t *testing.T) {
	base, nodes, setNow, closeAll := tracedChain(t, 2)
	for i := 0; i < 3; i++ {
		setNow(float64(10 * i))
		get(t, base, 3)
	}
	if !nodes[0].Contains(3) {
		t.Fatal("object not cached at the edge under this workload")
	}
	closeAll()
	traces := tracesByStart(nodes)
	hit := traces[len(traces)-1]
	dec, ok := hit["decide@0"]
	if !ok || dec.A != 0 || dec.N != 0 || dec.Hop != 0 {
		t.Fatalf("edge hit decide span = %+v (present %v), want an empty decision at hop 0", dec, ok)
	}
	if len(hit) != 3 || hit["lookup@0"].ID == 0 || hit["request@0"].ID == 0 {
		t.Fatalf("edge hit trace = %v, want request, lookup and decide only", hit)
	}
}

// TestGatewayMetricsEndpoint scrapes /cascade/metrics and checks the
// Prometheus text output carries the per-node and per-upstream series.
func TestGatewayMetricsEndpoint(t *testing.T) {
	base, nodes, setNow := chain(t, 2, 10000)
	for i := 0; i < 3; i++ {
		setNow(float64(10 * i))
		get(t, base, 5)
	}
	resp, err := http.Get(base + "/cascade/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE cascade_gw_hits_total counter",
		`cascade_gw_hits_total{node="0"}`,
		`cascade_gw_misses_total{node="0"}`,
		"# TYPE cascade_gw_upstream_health gauge",
		`cascade_gw_upstream_health{node="0",upstream="`,
		`cascade_gw_cache_used_bytes{node="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	// The scrape is a read-only view of the same counters /cascade/stats
	// reports: hits+misses must equal requests issued to the edge node.
	var st struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	sresp, err := http.Get(base + "/cascade/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	want := `cascade_gw_hits_total{node="0"} ` + strconv.FormatInt(st.Hits, 10)
	if !strings.Contains(out, want) {
		t.Fatalf("scrape disagrees with stats (%s):\n%s", want, out)
	}
	_ = nodes
}

// TestPredictHeaderRoundTrip pins the placement field of
// X-Cascade-Decision: every predicted Δcost term round-trips bit-exactly
// through the header, and a malformed entry fails the whole decision
// rather than poisoning a ledger.
func TestPredictHeaderRoundTrip(t *testing.T) {
	d := decision{place: []engine.Prediction{{Node: 2, Term: 1.0 / 3.0}, {Node: 5, Term: 0.1 + 0.2}, {Node: 9, Term: 4096}}}
	d.encode()
	if _, got, ok := parseDecision("0" + d.rest); !ok || !reflect.DeepEqual(got.place, d.place) {
		t.Fatalf("terms %v != %v after header round-trip %q", got.place, d.place, d.rest)
	}
	for _, bad := range []string{"0;junk", "0; 3=0.5", "0;=7", "0;8=", "0;4=nope", "0;3=0.5,,6=2.25", "0;3=0.5,"} {
		if _, got, ok := parseDecision(bad); ok {
			t.Errorf("parseDecision(%q) = %+v, want it refused", bad, got)
		}
	}
	if _, got, ok := parseDecision("0"); !ok || got.place != nil {
		t.Fatalf("a bare counter parsed to %+v, %v", got, ok)
	}
}

// TestPredictBookedAtPlacingNode checks the gateway's apply-time ledger
// booking: every node a response's X-Cascade-Decision places at carries
// its predicted term, and each node's own ledger ends up with exactly the
// terms the wire attributed to it.
func TestPredictBookedAtPlacingNode(t *testing.T) {
	base, nodes, setNow := chain(t, 2, 100000)
	wantSum := map[model.NodeID]float64{}
	wantCount := map[model.NodeID]int64{}
	placed := false
	for i := 0; i < 6; i++ {
		setNow(float64(10 * i))
		resp, _ := get(t, base, 7)
		_, d, ok := parseDecision(resp.Header.Get(HeaderDecision))
		if !ok {
			t.Fatalf("decision %q does not parse", resp.Header.Get(HeaderDecision))
		}
		for _, p := range d.place {
			placed = true
			wantSum[p.Node] += p.Term
			wantCount[p.Node]++
		}
	}
	if !placed {
		t.Fatal("no placement decided in 6 requests")
	}
	for _, n := range nodes {
		acc := n.Ledger().Node(n.ID)
		if acc.Predictions != wantCount[n.ID] || acc.PredictedGain != wantSum[n.ID] {
			t.Errorf("node %d ledger booked %d terms summing %g, wire carried %d summing %g",
				n.ID, acc.Predictions, acc.PredictedGain, wantCount[n.ID], wantSum[n.ID])
		}
	}
}

// TestOriginObservability enables the origin's decision-side instruments
// and checks that whole-chain-miss placements are audited with zero
// violations, that the origin's own listener serves the metrics and span
// debug routes — the ring holding no event record on clean traffic, an
// audit violation once one fires — and that object serving is unaffected.
func TestOriginObservability(t *testing.T) {
	clock, setNow := testClock()

	o := &Origin{Size: func(model.ObjectID) int { return 500 }}
	o.EnableObservability(64, clock)
	osrv := httptest.NewServer(o)
	defer osrv.Close()
	n := NewNode(0, osrv.URL, 1, 100000, 100, clock)
	srv := httptest.NewServer(n)
	defer srv.Close()

	for i := 0; i < 4; i++ {
		setNow(float64(10 * i))
		if _, body := get(t, srv.URL, 7); len(body) != 500 {
			t.Fatalf("object payload %d bytes through observable origin, want 500", len(body))
		}
	}

	aud := o.Auditor()
	if aud.Checks(audit.LocalBenefit) == 0 {
		t.Error("origin decided placements without auditing Theorem 2 local benefit")
	}
	if v := aud.TotalViolations(); v != 0 {
		t.Errorf("%d audit violations on clean traffic", v)
	}

	resp, err := http.Get(osrv.URL + "/cascade/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`cascade_audit_checks_total{node="origin",invariant="local_benefit"}`,
		`cascade_audit_violations_total{node="origin",invariant="dp_optimality"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("origin metrics missing %q:\n%s", want, out)
		}
	}

	var snap span.Snapshot
	dumpJSON(t, o, "/cascade/debug/spans", &snap)
	if snap.Capacity != 64 || len(events(snap.Spans)) != 0 {
		t.Fatalf("origin span ring capacity %d with %d event records, want 64 and none on clean traffic", snap.Capacity, len(events(snap.Spans)))
	}

	// A violation lands in the ring with full context.
	aud.CheckLocalBenefit(nil, model.NoNode, 7, 2, 0.1, 1, 5, 40) // f·m < l
	dumpJSON(t, o, "/cascade/debug/spans", &snap)
	evs := events(snap.Spans)
	if len(evs) != 1 || evs[0].Phase != span.PhaseAuditViolation || evs[0].Obj != 7 ||
		evs[0].Hop != 2 || evs[0].N != int(audit.LocalBenefit) {
		t.Fatalf("origin span ring after a violation = %+v, want one audit_violation for object 7 at hop 2", evs)
	}
}

// dumpJSON decodes the JSON a handler answers at a control endpoint into v.
func dumpJSON(t *testing.T, h http.Handler, path string, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), v); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("%s: status %d, %v\n%s", path, rec.Code, err, rec.Body.Bytes())
	}
}

// TestOriginDecideSpan: an origin-served request's span tree carries the
// decide that chose its placement. The origin joins the trace the last hop
// forwarded and keeps, in its own ring, exactly one decide span per request —
// in the client's trace, parented on the last hop's up span — whose N is the
// number of nodes X-Cascade-Decision places at and whose A is the sum of the
// predicted terms the client saw there. This is the only per-request record
// of the origin's predicted Δcost.
func TestOriginDecideSpan(t *testing.T) {
	clock, setNow := testClock()

	o := &Origin{Size: func(model.ObjectID) int { return 500 }}
	o.EnableObservability(64, clock)
	o.EnableSpans(span.Policy{Rate: 1}, 0)
	servers := []*httptest.Server{httptest.NewServer(o)}
	closeAll := func() {
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
	}
	defer closeAll()
	const levels = 3
	nodes := make([]*Node, levels)
	for i := levels - 1; i >= 0; i-- {
		nodes[i] = NewNode(model.NodeID(i), servers[len(servers)-1].URL, float64(i+1), 10000, 100, clock)
		nodes[i].EnableSpans(span.Policy{Rate: 1}, 256)
		servers = append(servers, httptest.NewServer(nodes[i]))
	}
	base := servers[len(servers)-1].URL

	// Two passes over a few objects: the cold pass decides nothing (no
	// descriptors anywhere), the warm pass decides real placements.
	var decisions []decision
	for i := 0; i < 8; i++ {
		setNow(float64(10 * (i + 1)))
		resp, _ := get(t, base, 1+i%4)
		if resp.Header.Get(HeaderHit) != "origin" {
			t.Fatalf("request %d served by %q, want the origin", i, resp.Header.Get(HeaderHit))
		}
		_, dec, ok := parseDecision(resp.Header.Get(HeaderDecision))
		if !ok {
			t.Fatalf("decision %q does not parse", resp.Header.Get(HeaderDecision))
		}
		decisions = append(decisions, dec)
	}
	closeAll() // every hop's deferred Collect has run

	var snap span.Snapshot
	dumpJSON(t, o, "/cascade/debug/spans", &snap)
	if snap.Node != int(model.NoNode) || snap.Capacity != defaultSpanCapacity || len(snap.Spans) != len(decisions) {
		t.Fatalf("origin ring: node %d capacity %d with %d spans, want %d spans (one decide per request) at the default capacity",
			snap.Node, snap.Capacity, len(snap.Spans), len(decisions))
	}
	byTrace := map[span.TraceID]span.Span{}
	for _, s := range snap.Spans {
		byTrace[s.Trace] = s
	}
	placedSomething := false
	for i, tr := range tracesByStart(nodes) {
		dec, ok := byTrace[tr["request@0"].Trace]
		if !ok {
			t.Fatalf("request %d: the origin kept no span in the client's trace", i)
		}
		if dec.Phase != span.PhaseDecide || dec.Node != model.NoNode || dec.Hop != levels ||
			dec.Parent != tr["up@2"].ID || dec.End < dec.Start {
			t.Errorf("request %d: origin span %+v, want a closed decide at hop %d under the last hop's up span %s",
				i, dec, levels, tr["up@2"].ID)
		}
		sum := 0.0
		for _, p := range decisions[i].place {
			sum += p.Term
		}
		if dec.N != len(decisions[i].place) || dec.A != sum {
			t.Errorf("request %d: decide(Δcost=%v, chosen=%d) but the client saw place=%v (sum %v)",
				i, dec.A, dec.N, decisions[i].place, sum)
		}
		placedSomething = placedSomething || dec.N > 0
	}
	if !placedSomething {
		t.Fatal("test premise broken: no request decided a placement")
	}
}

// TestUpstreamHealthMetric walks the upstream slot to Down with failing
// exchanges and checks the gauge tracks it: suspect after the first, down
// after the third.
func TestUpstreamHealthMetric(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer dead.Close()
	n := NewNode(0, dead.URL, 1, 1000, 10, func() float64 { return 0 })
	n.MaxRetries = -1
	n.Sleep = func(time.Duration) {}
	srv := httptest.NewServer(n)
	defer srv.Close()

	for i, want := range []int{1, 1, 2} {
		resp, err := http.Get(srv.URL + "/objects/1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		rec := httptest.NewRecorder()
		n.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/metrics", nil))
		line := `cascade_gw_upstream_health{node="0",upstream="` + dead.URL + `"} ` + strconv.Itoa(want)
		if !strings.Contains(rec.Body.String(), line) {
			t.Fatalf("after %d failed exchanges the scrape lacks %s:\n%s", i+1, line, rec.Body.String())
		}
	}
}

// events returns the event records among a ring's spans: the zero-length
// records with no span ID, oldest first.
func events(spans []span.Span) []span.Span {
	var out []span.Span
	for _, s := range spans {
		if s.ID == 0 {
			out = append(out, s)
		}
	}
	return out
}
