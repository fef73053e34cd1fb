package httpgw

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cascade/internal/cache"
	"cascade/internal/controlplane"
	"cascade/internal/model"
	"cascade/internal/span"
)

func postJSON(t *testing.T, url string) (int, controlState) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st controlState
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode, st
}

// nodeURL finds the httptest URL serving a given node by walking the chain
// downward from the client-facing base.
func nodeURL(t *testing.T, base string, nodes []*Node, id model.NodeID) string {
	t.Helper()
	url := base
	for _, n := range nodes {
		if n.ID == id {
			return url
		}
		url = n.Upstream
	}
	t.Fatalf("node %d not in chain", id)
	return ""
}

// TestAdminDrainSpillsUpstream drains a warm edge node and checks the whole
// hand-off: descriptors land in the upstream's d-cache, the drained node
// serves as a pure relay with a "-" path entry, and admit restores it
// empty.
func TestAdminDrainSpillsUpstream(t *testing.T) {
	base, nodes, setNow := chain(t, 2, 100000)

	// Warm node 0: the second request places the copy at the edge.
	setNow(0)
	get(t, base, 42)
	setNow(10)
	get(t, base, 42)
	if !nodes[0].Contains(42) {
		t.Fatal("warm-up did not place a copy at node 0")
	}

	setNow(20)
	code, st := postJSON(t, base+"/cascade/admin/drain")
	if code != http.StatusOK {
		t.Fatalf("drain status %d", code)
	}
	// Absorbed is 0 here: the upstream watched the warm-up requests pass
	// through, so it already holds the object's descriptor and skips the
	// duplicate — the contract is "the upstream knows the object", not
	// "the bytes moved".
	if st.Member != "removed" || st.Drained != 1 {
		t.Fatalf("drain reply %+v, want removed with 1 drained", st)
	}
	if nodes[0].Contains(42) {
		t.Fatal("drained node still holds the object")
	}
	if !nodes[1].st.DCacheContains(42) {
		t.Fatal("spilled descriptor did not reach the upstream d-cache")
	}
	if got := nodes[0].Member(); got != controlplane.Removed {
		t.Fatalf("membership = %v, want removed", got)
	}

	// A second drain must refuse.
	if code, _ := postJSON(t, base+"/cascade/admin/drain"); code != http.StatusConflict {
		t.Fatalf("second drain status %d, want 409", code)
	}

	// Requests still flow end to end through the relay, and the drained
	// node contributes only its link cost: the DP still sees both hops, so
	// a placement goes to the remaining cache (node 1).
	setNow(30)
	resp, body := get(t, base, 42)
	if resp.StatusCode != http.StatusOK || len(body) != 500 {
		t.Fatalf("relay response status %d, %d bytes", resp.StatusCode, len(body))
	}
	setNow(40)
	get(t, base, 42)
	if nodes[0].Contains(42) {
		t.Fatal("removed node took a copy")
	}
	if !nodes[1].Contains(42) {
		t.Fatal("placement did not fall to the surviving cache")
	}
	// Served from node 1's cache through the relay: penalty counter at the
	// client is node 0's folded link cost.
	setNow(50)
	resp, _ = get(t, base, 42)
	if resp.Header.Get(HeaderHit) != "1" {
		t.Fatalf("served by %q, want node 1", resp.Header.Get(HeaderHit))
	}
	if got := resp.Header.Get(HeaderDecision); got != "1" {
		t.Fatalf("relay penalty %q, want 1 (link folded, no reset)", got)
	}

	// Admit restores an empty, active node.
	code, st = postJSON(t, base+"/cascade/admin/admit")
	if code != http.StatusOK || st.Member != "active" {
		t.Fatalf("admit status %d, state %+v", code, st)
	}
	if nodes[0].Contains(42) || nodes[0].st.DCacheLen() != 0 {
		t.Fatal("admitted node should start empty")
	}
	if code, _ := postJSON(t, base+"/cascade/admin/admit"); code != http.StatusConflict {
		t.Fatal("second admit should refuse")
	}

	// The span ring kept the membership transitions: drain, remove,
	// admit.
	var members int
	for _, ev := range events(nodes[0].DumpSpans().Spans) {
		if ev.Phase == span.PhaseMembership {
			members++
		}
	}
	if members != 3 {
		t.Fatalf("got %d membership event records, want 3", members)
	}
}

// TestAdminHealthEndpoints covers the probe endpoint and the operator
// override: a node marked down answers 503 on /cascade/health, and the
// admin endpoint reports the state machine's position.
func TestAdminHealthEndpoints(t *testing.T) {
	base, _, _ := chain(t, 1, 100000)

	resp, err := http.Get(base + "/cascade/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy probe status %d", resp.StatusCode)
	}

	code, st := postJSON(t, base+"/cascade/admin/health?state=down")
	if code != http.StatusOK || st.Health != "down" {
		t.Fatalf("override status %d, state %+v", code, st)
	}
	resp, err = http.Get(base + "/cascade/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("down probe status %d, want 503", resp.StatusCode)
	}

	if code, _ := postJSON(t, base+"/cascade/admin/health?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus health status %d, want 400", code)
	}

	// GET reflects the override.
	resp, err = http.Get(base + "/cascade/admin/health")
	if err != nil {
		t.Fatal(err)
	}
	var got controlState
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Health != "down" || got.Member != "active" {
		t.Fatalf("admin health GET = %+v", got)
	}
}

// TestUpstreamProberGatesFetch walks the prober's state machine against a
// chain whose middle node gets marked down, and checks that fetchUpstream
// fails fast into degraded mode once the upstream is probed Down.
func TestUpstreamProberGatesFetch(t *testing.T) {
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 100 }})
	defer origin.Close()

	mid := NewNode(1, origin.URL, 1, 100000, 100, func() float64 { return 0 })
	midSrv := httptest.NewServer(mid)
	defer midSrv.Close()

	edge := NewNode(0, midSrv.URL, 1, 100000, 100, func() float64 { return 0 })
	edge.OriginURL = origin.URL
	edge.MaxRetries = -1
	edgeSrv := httptest.NewServer(edge)
	defer edgeSrv.Close()

	if got := edge.ProbeUpstream(); got != controlplane.Healthy {
		t.Fatalf("healthy upstream probed %v", got)
	}

	// Mark the middle node down; the prober walks suspect → down.
	if code, _ := postJSON(t, midSrv.URL+"/cascade/admin/health?state=down"); code != http.StatusOK {
		t.Fatal("override failed")
	}
	for i, want := range []controlplane.Health{controlplane.Suspect, controlplane.Suspect, controlplane.Down} {
		if got := edge.ProbeUpstream(); got != want {
			t.Fatalf("after %d failed probes: %v, want %v", i+1, got, want)
		}
	}

	// Down upstream: the fetch is refused before any request goes out, and
	// the node serves degraded from the origin.
	resp, body := get(t, edgeSrv.URL, 7)
	if resp.StatusCode != http.StatusOK || len(body) != 100 {
		t.Fatalf("degraded response status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(headerDegraded) != "1" {
		t.Fatal("response not marked degraded")
	}

	// Recovery: two successful probes restore Healthy and the protocol.
	if code, _ := postJSON(t, midSrv.URL+"/cascade/admin/health?state=healthy"); code != http.StatusOK {
		t.Fatal("recovery override failed")
	}
	for i, want := range []controlplane.Health{controlplane.Down, controlplane.Healthy} {
		if got := edge.ProbeUpstream(); got != want {
			t.Fatalf("after %d recovery probes: %v, want %v", i+1, got, want)
		}
	}
	resp, _ = get(t, edgeSrv.URL, 7)
	if resp.Header.Get(headerDegraded) != "" {
		t.Fatal("healthy upstream should serve through the protocol")
	}
}

// TestAdminStatsAndMetricsShape pins the serialized control-plane surface:
// the /cascade/stats JSON fields and the Prometheus series the satellite
// work added.
func TestAdminStatsAndMetricsShape(t *testing.T) {
	base, nodes, _ := chain(t, 1, 100000)

	resp, err := http.Get(base + "/cascade/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, k := range []string{"membership", "health", "upstream_health", "epoch"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("stats JSON missing %q: %v", k, stats)
		}
	}
	if stats["membership"] != "active" || stats["health"] != "healthy" {
		t.Fatalf("fresh node stats = %v", stats)
	}

	postJSON(t, base+"/cascade/admin/drain")
	rec := httptest.NewRecorder()
	nodes[0].MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		`cascade_membership_changes_total{event="drain",node="0"} 1`,
		`cascade_membership_changes_total{event="remove",node="0"} 1`,
		`cascade_gw_membership{node="0"} 2`,
		`cascade_node_health{node="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestPassThroughPreservesChainDecisions drains the middle node of a
// three-deep chain and checks a full protocol exchange still works across
// the relay, with the relay's link cost visible to the DP via its "-"
// entry.
func TestPassThroughPreservesChainDecisions(t *testing.T) {
	base, nodes, setNow := chain(t, 3, 100000)

	midURL := nodeURL(t, base, nodes, 1)
	if code, _ := postJSON(t, midURL+"/cascade/admin/drain"); code != http.StatusOK {
		t.Fatal("drain failed")
	}

	// Cold pass seeds descriptors at nodes 0 and 2 only.
	setNow(0)
	get(t, base, 9)
	// Second pass: a placement lands (node 0 carries the largest penalty).
	setNow(10)
	get(t, base, 9)
	if nodes[1].Contains(9) {
		t.Fatal("draining node took a copy")
	}
	if !nodes[0].Contains(9) {
		t.Fatal("edge node did not cache across the relay")
	}
	setNow(20)
	resp, _ := get(t, base, 9)
	if resp.Header.Get(HeaderHit) != "0" {
		t.Fatalf("served by %q, want node 0", resp.Header.Get(HeaderHit))
	}
}

// TestMissTailsForwardETag: whichever way a miss finishes at a hop — placed,
// relayed because the decision chose elsewhere, or relayed because a drain
// landed while the upstream fetch was in flight — the upstream validator must
// reach the hop below. A hop that stores the body with an empty validator
// sends no If-None-Match on its next TTL revalidation and turns every 304
// into a full refetch.
func TestMissTailsForwardETag(t *testing.T) {
	const tag = `"v1"`
	cases := []struct {
		name   string
		place  string // X-Cascade-Decision on the upstream reply
		drain  bool   // drain the node inside RoundTrip
		cached bool   // the node holds the object afterwards
	}{
		{name: "placed", place: "0;1=0", cached: true},
		{name: "relayed", place: "0"},
		{name: "drained-mid-fetch", place: "0;1=0", drain: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
			n.Client = &http.Client{Transport: stubUpstream(func(*http.Request) *http.Response {
				if tc.drain {
					rec := httptest.NewRecorder()
					n.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cascade/admin/drain", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("drain inside RoundTrip: status %d", rec.Code)
					}
				}
				h := http.Header{}
				h.Set(HeaderHit, "origin")
				h.Set(HeaderDecision, tc.place)
				h.Set("ETag", tag)
				return &http.Response{StatusCode: http.StatusOK, Header: h, ContentLength: 3,
					Body: io.NopCloser(strings.NewReader("abc"))}
			})}
			rec := httptest.NewRecorder()
			n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
			if rec.Code != http.StatusOK || rec.Body.String() != "abc" {
				t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
			}
			if got := n.Contains(7); got != tc.cached {
				t.Fatalf("node caches the object = %v, want %v (wrong tail exercised)", got, tc.cached)
			}
			if got := rec.Header().Get("ETag"); got != tag {
				t.Fatalf("client saw ETag %q, want %q", got, tag)
			}
		})
	}
}

// TestAbsorbCapped: an absorb body past maxAbsorbBytes is refused with 413
// before it is decoded whole, even when it is a valid spill, and the
// d-cache is left as it was; a spill within the cap is absorbed.
func TestAbsorbCapped(t *testing.T) {
	spill := func(n int) []byte {
		snaps := make([]cache.DescriptorSnapshot, n)
		for i := range snaps {
			snaps[i] = cache.DescriptorSnapshot{ID: model.ObjectID(i), Size: 3000, MissPenalty: 1.5, AccessTimes: []float64{0.25, 0.5}, WindowK: 2}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snaps); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	absorb := func(n *Node, body []byte) int {
		w := httptest.NewRecorder()
		n.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/cascade/admin/absorb", bytes.NewReader(body)))
		return w.Code
	}
	n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 1<<20, func() float64 { return 1 })
	over := spill(maxAbsorbBytes / 20)
	if len(over) <= maxAbsorbBytes {
		t.Fatalf("the spill is %d bytes, want more than the %d cap", len(over), maxAbsorbBytes)
	}
	if code := absorb(n, over); code != http.StatusRequestEntityTooLarge || n.st.DCacheLen() != 0 {
		t.Fatalf("a %d-byte spill: status %d, %d descriptors absorbed; want 413 and none", len(over), code, n.st.DCacheLen())
	}
	if code := absorb(n, spill(100)); code != http.StatusOK || n.st.DCacheLen() != 100 {
		t.Fatalf("a 100-descriptor spill: status %d, %d descriptors absorbed; want 200 and 100", code, n.st.DCacheLen())
	}
}

// TestControlNamespaceReserved: every path under /cascade/ is a control
// endpoint, at nodes and at the origin alike, and an unknown one is 404 —
// never an object the origin synthesizes, or one a node forwards upstream
// and may place. The origin reports no stats, so federation stops there,
// and answers the health probe its downstream neighbour polls.
func TestControlNamespaceReserved(t *testing.T) {
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 64 }})
	defer origin.Close()
	n := NewNode(0, origin.URL, 1, 1<<20, 64, func() float64 { return 0 })
	node := httptest.NewServer(n)
	defer node.Close()
	const prom, js = "text/plain; version=0.0.4", "application/json"
	for _, tc := range []struct {
		base, path string
		status     int
		ctype      string
	}{
		{origin.URL, "/cascade/stats", http.StatusNotFound, ""},
		{origin.URL, "/cascade/metrics", http.StatusOK, prom},
		{origin.URL, "/cascade/debug/spans", http.StatusOK, js},
		{origin.URL, "/cascade/debug/flight", http.StatusNotFound, ""},
		{origin.URL, "/cascade/health", http.StatusOK, js},
		{origin.URL, "/cascade/admin/drain", http.StatusNotFound, ""},
		{origin.URL, "/cascade/nosuch", http.StatusNotFound, ""},
		{node.URL, "/cascade/nosuch", http.StatusNotFound, ""},
		{node.URL, "/cascade/debug/nosuch", http.StatusNotFound, ""},
		{node.URL, "/cascade/debug/flight", http.StatusNotFound, ""},
	} {
		resp, err := http.Get(tc.base + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		at := map[string]string{origin.URL: "origin", node.URL: "node"}[tc.base]
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != tc.status || resp.Header.Get(HeaderHit) != "" || !strings.HasPrefix(ct, tc.ctype) {
			t.Errorf("%s %s: status %d, %s %q, Content-Type %q; want %d, no object, Content-Type %q",
				at, tc.path, resp.StatusCode, HeaderHit, resp.Header.Get(HeaderHit), ct, tc.status, tc.ctype)
		}
	}
	if n.misses.Load() != 0 || n.inserts.Load() != 0 {
		t.Errorf("the node forwarded control paths upstream: %d misses, %d inserts", n.misses.Load(), n.inserts.Load())
	}
}

// hugeJSONBytes is the length of the JSON string a hostile peer streams.
const hugeJSONBytes = 64 << 20

// hugeJSONPeer is a peer that answers every request with one JSON object
// holding a hugeJSONBytes-long string, streamed from one reused chunk.
func hugeJSONPeer(t *testing.T) *httptest.Server {
	chunk := bytes.Repeat([]byte("a"), 32<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"obj":"`) //nolint:errcheck
		for i := 0; i < hugeJSONBytes/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				return // the reader gave up
			}
		}
		io.WriteString(w, `"}`) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

// allocDuring returns the bytes the process allocates while f runs.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSpillReplyCapped: a drain's spill reads the upstream's absorb reply
// through maxReplyBytes, so a peer streaming a huge JSON string costs the
// node a bounded buffer and the spill reports nothing absorbed.
func TestSpillReplyCapped(t *testing.T) {
	n := NewNode(0, hugeJSONPeer(t).URL, 1, 1<<20, 64, func() float64 { return 0 })
	absorbed := -1
	alloc := allocDuring(func() {
		absorbed = n.spill([]cache.DescriptorSnapshot{{ID: 1, Size: 100, AccessTimes: []float64{1}, WindowK: 3}})
	})
	if absorbed != 0 || alloc >= 4<<20 {
		t.Fatalf("spill against a huge reply: absorbed %d, allocated %d bytes; want 0 and under 4 MiB", absorbed, alloc)
	}
}
