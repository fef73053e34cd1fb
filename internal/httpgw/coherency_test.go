package httpgw

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
)

// cohChain is chain with the coherency substrate attached: the origin owns
// a generation authority and every node runs a CAS-strict view, enabled
// before the httptest server starts accepting.
func cohChain(t *testing.T, levels int, capacity int64) (string, []*Node, *Origin, func(float64)) {
	t.Helper()
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	setNow := func(v float64) { mu.Lock(); now = v; mu.Unlock() }

	o := &Origin{
		Size:      func(model.ObjectID) int { return 500 },
		Authority: coherency.NewAuthority(),
	}
	origin := httptest.NewServer(o)
	t.Cleanup(origin.Close)

	upstream := origin.URL
	nodes := make([]*Node, levels)
	for i := levels - 1; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, float64(i+1), capacity, 100, clock)
		n.EnableCoherency(coherency.ModeCAS)
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		upstream = srv.URL
		nodes[i] = n
	}
	return upstream, nodes, o, setNow
}

// postInvalidate drives the write path from the bottom of the chain and
// returns the object's new generation.
func postInvalidate(t *testing.T, base string, obj int) uint64 {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/cascade/admin/invalidate?obj=%d", base, obj), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("invalidate obj %d: status %d: %s", obj, resp.StatusCode, body)
	}
	var rep struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep.Gen
}

// TestInvalidatePropagatesChain: an origin-driven write entering at the
// bottom of a three-node cascade chains up to the authority and, on the
// unwind, raises every hop's generation floor and drops every cached copy —
// so the next read refetches the new generation from the origin and no node
// ever serves the old bytes again.
func TestInvalidatePropagatesChain(t *testing.T) {
	base, nodes, _, setNow := cohChain(t, 3, 100000)

	// Warm obj 42 until the client-side node holds it.
	for i := 0; i < 3; i++ {
		setNow(float64(10 * i))
		get(t, base, 42)
	}
	if !nodes[0].Contains(42) {
		t.Fatal("object not cached before the write")
	}
	setNow(25)
	resp, _ := get(t, base, 42)
	if resp.Header.Get(HeaderHit) != "0" {
		t.Fatalf("warm read served by %q, want node 0", resp.Header.Get(HeaderHit))
	}
	if resp.Header.Get(HeaderGen) != "" {
		t.Fatalf("unwritten object served with generation %q", resp.Header.Get(HeaderGen))
	}

	// The write: every hop must raise its floor and drop its copy.
	setNow(30)
	if gen := postInvalidate(t, base, 42); gen != 1 {
		t.Fatalf("first write assigned generation %d", gen)
	}
	for i, n := range nodes {
		if fl := n.CoherencyView().Floor(42); fl != 1 {
			t.Fatalf("node %d floor %d after the write, want 1", i, fl)
		}
		if n.Contains(42) {
			t.Fatalf("node %d still holds the invalidated copy", i)
		}
	}

	// The next read refetches generation 1 from the origin.
	setNow(40)
	resp, _ = get(t, base, 42)
	if resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("post-write read served by %q, want origin", resp.Header.Get(HeaderHit))
	}
	if resp.Header.Get(HeaderGen) != "1" {
		t.Fatalf("post-write read at generation %q, want 1", resp.Header.Get(HeaderGen))
	}

	// Re-warmed at the new generation, the chain serves locally again.
	setNow(50)
	get(t, base, 42)
	setNow(60)
	resp, _ = get(t, base, 42)
	if resp.Header.Get(HeaderHit) != "0" || resp.Header.Get(HeaderGen) != "1" {
		t.Fatalf("re-warmed read hit=%q gen=%q, want node 0 at gen 1",
			resp.Header.Get(HeaderHit), resp.Header.Get(HeaderGen))
	}

	// A second write bumps again; a request carrying its own CAS floor
	// above the copy's generation self-heals to a miss.
	setNow(70)
	if gen := postInvalidate(t, base, 42); gen != 2 {
		t.Fatalf("second write assigned generation %d", gen)
	}

	// The span ring, on without a tracer, logged the invalidations as
	// event records.
	var snap span.Snapshot
	dumpJSON(t, nodes[0], "/cascade/debug/spans", &snap)
	saw := false
	for _, e := range events(snap.Spans) {
		saw = saw || e.Phase == span.PhaseInvalidate && e.Obj == 42
	}
	if !saw {
		t.Fatalf("no invalidate record in the span ring: %+v", snap.Spans)
	}
}

// TestStaleHitInRequestTrace: a GET that finds its copy below the CAS floor
// leaves a stale_hit event record in the span ring under the request's own
// trace ID, beside that request's lookup span — both in one dump, though
// the tracer samples no unremarkable trace.
func TestStaleHitInRequestTrace(t *testing.T) {
	o := &Origin{Size: func(model.ObjectID) int { return 500 }, Authority: coherency.NewAuthority()}
	origin := httptest.NewServer(o)
	t.Cleanup(origin.Close)
	now := 0.0
	n := NewNode(0, origin.URL, 1, 100000, 100, func() float64 { return now })
	n.EnableCoherency(coherency.ModeCAS)
	n.EnableSpans(span.Policy{Rate: 0}, 64)
	serve := func(floor string) {
		now++
		req := httptest.NewRequest(http.MethodGet, "/objects/42", nil)
		if floor != "" {
			req.Header.Set(HeaderGen, floor)
		}
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET with floor %q: status %d", floor, rec.Code)
		}
	}
	for i := 0; i < 5 && !n.Contains(42); i++ {
		serve("")
	}
	if !n.Contains(42) {
		t.Fatal("the node never cached object 42")
	}
	o.Authority.Bump(42) // a write the node has not heard of
	serve("1")           // the request's floor is above the copy's generation

	var snap span.Snapshot
	dumpJSON(t, n, "/cascade/debug/spans", &snap)
	var stale span.Span
	for _, s := range events(snap.Spans) {
		if s.Phase == span.PhaseStaleHit && s.Obj == 42 {
			stale = s
		}
	}
	if stale.Trace.IsZero() || stale.Start != stale.End || stale.A != 0 || stale.B != 1 || stale.N != 1 {
		t.Fatalf("no stale_hit record for object 42 under a request's trace (gen 0, floor 1, healed): %+v", snap.Spans)
	}
	for _, s := range snap.Spans {
		if s.Trace == stale.Trace && s.Phase == span.PhaseLookup && s.ID != 0 {
			return
		}
	}
	t.Fatalf("trace %s holds the stale_hit record but no lookup span: %+v", stale.Trace, snap.Spans)
}

// TestInvalidateReplyCapped: a node reads the authority's invalidate
// acknowledgment through maxReplyBytes, so a peer streaming a huge JSON
// string gets a 502 at a bounded cost and no floor moves.
func TestInvalidateReplyCapped(t *testing.T) {
	n := NewNode(0, hugeJSONPeer(t).URL, 1, 1<<20, 64, func() float64 { return 0 })
	n.EnableCoherency(coherency.ModeCAS)
	rec := httptest.NewRecorder()
	alloc := allocDuring(func() {
		n.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cascade/admin/invalidate?obj=7", nil))
	})
	if rec.Code != http.StatusBadGateway || alloc >= 4<<20 {
		t.Fatalf("invalidate against a huge reply: status %d, allocated %d bytes; want 502 and under 4 MiB", rec.Code, alloc)
	}
	if fl := n.CoherencyView().Floor(7); fl != 0 {
		t.Fatalf("floor %d after a refused reply, want 0", fl)
	}
}

// TestBadCoherencyHeadersCounted: a malformed request floor is counted and
// zero-defaulted (freshness weakens, availability never), and a decision
// whose piggybacked invalidation batch is garbled is counted and dropped
// whole — both visible in cascade_gw_bad_header_total by header kind.
func TestBadCoherencyHeadersCounted(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }

	// The upstream answers with a garbage invalidation tail in its
	// decision — a corrupted peer.
	garbler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderDecision, "0;;0|not:an:entry")
		w.Header().Set(HeaderHit, originName)
		w.Write(make([]byte, 500)) //nolint:errcheck
	})
	origin := httptest.NewServer(garbler)
	t.Cleanup(origin.Close)

	n := NewNode(0, origin.URL, 1, 100000, 100, clock)
	n.EnableCoherency(coherency.ModeCAS)
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	// Malformed request floor: the read still succeeds.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/objects/7", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderGen, "not-a-generation")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed floor rejected the read: status %d", resp.StatusCode)
	}
	// The node's view must not have applied anything from the garbled batch.
	if fl := n.CoherencyView().Floors(); len(fl) != 0 {
		t.Fatalf("garbled invalidation batch applied: floors %v", fl)
	}

	sresp, err := http.Get(srv.URL + "/cascade/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		BadHeaders int64 `json:"bad_headers"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.BadHeaders != 2 {
		t.Fatalf("bad_headers = %d, want 2 (one gen, one decision)", st.BadHeaders)
	}

	mresp, err := http.Get(srv.URL + "/cascade/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, kind := range []string{"gen", "decision"} {
		found := false
		for _, line := range strings.Split(string(mbody), "\n") {
			if strings.HasPrefix(line, "cascade_gw_bad_header_total") &&
				strings.Contains(line, `header="`+kind+`"`) && strings.HasSuffix(line, " 1") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cascade_gw_bad_header_total{header=%q} not 1 in scrape:\n%s", kind, mbody)
		}
	}
}

// TestSpillRejectsStaleGeneration: bytes spilled to disk at an old
// generation can never be served once the node's floor moves past them —
// the store's MinGen oracle (wired to the coherency view by EnableSpill)
// screens the file on read and the request falls through to the origin.
func TestSpillRejectsStaleGeneration(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	setNow := func(v float64) { mu.Lock(); now = v; mu.Unlock() }

	const objSize = 1000
	co := &countingOrigin{o: &Origin{Size: func(model.ObjectID) int { return objSize }}}
	origin := httptest.NewServer(co)
	t.Cleanup(origin.Close)

	n := NewNode(1, origin.URL, 2.0, 3*objSize, 100, clock)
	n.EnableCoherency(coherency.ModeCAS)
	if err := n.EnableSpill(t.TempDir(), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	// Churn a working set larger than memory so NCL evictions spill.
	for obj := 0; obj < 8; obj++ {
		for k := 0; k < 5; k++ {
			setNow(float64(obj*10 + k))
			get(t, srv.URL, obj)
		}
	}
	spilled := model.ObjectID(-1)
	for obj := model.ObjectID(0); obj < 8; obj++ {
		if n.SpillContains(obj) && !n.Contains(obj) {
			spilled = obj
			break
		}
	}
	if spilled < 0 {
		t.Fatalf("no spilled-but-not-cached object found: %+v", n.BodyStats())
	}

	// The floor moves past the spilled copy (an invalidation learned while
	// the bytes sat on disk). The re-read must not resurrect them.
	n.CoherencyView().Raise(spilled, 7)
	before := co.plain.Load()
	setNow(100)
	resp, body := get(t, srv.URL, int(spilled))
	if resp.StatusCode != http.StatusOK || len(body) != objSize {
		t.Fatalf("stale-spill re-read: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if co.plain.Load() != before+1 {
		t.Fatal("stale spilled bytes served without an origin refetch")
	}
	if bs := n.BodyStats(); bs.StaleGenDrops == 0 {
		t.Fatalf("stale disk file not screened: %+v", bs)
	}
	if n.SpillContains(spilled) {
		t.Fatal("stale spill file survived the screened read")
	}
}

// TestSnapshotPreservesGeneration: a snapshot taken after a write round-trip
// persists each copy's generation, so a warm-restarted node can prove its
// copies against the floors it learns — a restored gen-1 copy survives a
// gen-1 floor instead of being demoted as generation-unknown.
func TestSnapshotPreservesGeneration(t *testing.T) {
	base, nodes, _, setNow := cohChain(t, 1, 1<<20)

	// Write first, then warm: the cached copy carries generation 1.
	setNow(0)
	if gen := postInvalidate(t, base, 11); gen != 1 {
		t.Fatalf("write assigned generation %d", gen)
	}
	setNow(1)
	get(t, base, 11)
	setNow(10)
	get(t, base, 11) // placed at the node
	if !nodes[0].Contains(11) {
		t.Fatal("object not cached before snapshot")
	}
	var buf strings.Builder
	if err := nodes[0].SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Warm-restart into a fresh coherent node that already knows the
	// gen-1 floor (it learned the invalidation before crashing).
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 500 }})
	t.Cleanup(origin.Close)
	fresh := NewNode(0, origin.URL, 1, 1<<20, 100, func() float64 { return 20 })
	fresh.EnableCoherency(coherency.ModeCAS)
	restored, err := fresh.LoadSnapshot(strings.NewReader(buf.String()), 20)
	if err != nil || restored != 1 {
		t.Fatalf("restored=%d err=%v", restored, err)
	}
	fresh.CoherencyView().Raise(11, 1)
	srv := httptest.NewServer(fresh)
	t.Cleanup(srv.Close)

	resp, body := get(t, srv.URL, 11)
	if resp.Header.Get(HeaderHit) != "0" || len(body) != 500 {
		t.Fatalf("restored gen-1 copy not served locally against a gen-1 floor: hit=%q len=%d",
			resp.Header.Get(HeaderHit), len(body))
	}
	if resp.Header.Get(HeaderGen) != "1" {
		t.Fatalf("restored copy served at generation %q, want 1", resp.Header.Get(HeaderGen))
	}
}

// bytesMatchDescriptors fails the test unless every node's memory tier
// holds exactly the bytes and objects of its descriptor store: a demoted
// copy must take its bytes with it.
func bytesMatchDescriptors(t *testing.T, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		if err := n.CheckBytes(); err != nil {
			t.Error(err)
		}
	}
}

// TestPiggybackedInvalidationDropsBytes: an invalidation that reaches a
// node on another object's response — the write went straight to the
// origin, so no unwind passed the node — demotes the copy and must drop its
// bytes in the same step.
func TestPiggybackedInvalidationDropsBytes(t *testing.T) {
	base, nodes, _, setNow := cohChain(t, 3, 100000)
	for i := 0; i < 3; i++ {
		setNow(float64(10 * i))
		get(t, base, 42)
	}
	if !nodes[0].Contains(42) {
		t.Fatal("object not cached before the write")
	}
	setNow(30)
	postInvalidate(t, nodes[2].Upstream, 42)
	setNow(40)
	get(t, base, 43)
	if nodes[0].Contains(42) {
		t.Fatal("node 0 still holds the invalidated copy")
	}
	bytesMatchDescriptors(t, nodes)
}

// TestTTLExpiryRefetches: under ModeTTL a copy past the view's lifetime
// (3600 s) is refetched from upstream, never served, and its bytes leave
// with it.
func TestTTLExpiryRefetches(t *testing.T) {
	base, nodes, setNow, _ := chainWith(t, 1, 100000, func(n *Node) { n.EnableCoherency(coherency.ModeTTL) })
	for i := 0; i < 3; i++ {
		setNow(float64(10 * i))
		get(t, base, 42)
	}
	if !nodes[0].Contains(42) {
		t.Fatal("object not cached")
	}
	setNow(5000)
	if resp, _ := get(t, base, 42); resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("expired copy served by %q, want a refetch from the origin", resp.Header.Get(HeaderHit))
	}
	bytesMatchDescriptors(t, nodes)
}

// TestAdminInvalidateDropsSpilledCopy: a pushed invalidation that raises
// the node's floor drops a spilled disk copy of the object too, so the
// stale file does not hold disk-tier capacity until something reads it.
func TestAdminInvalidateDropsSpilledCopy(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	const objSize = 1000
	o := &Origin{Size: func(model.ObjectID) int { return objSize }, Authority: coherency.NewAuthority()}
	origin := httptest.NewServer(o)
	t.Cleanup(origin.Close)
	n := NewNode(1, origin.URL, 2.0, 3*objSize, 100, clock)
	n.EnableCoherency(coherency.ModeCAS)
	if err := n.EnableSpill(t.TempDir(), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)
	// Churn a working set larger than memory so NCL evictions spill.
	for obj := 0; obj < 8; obj++ {
		for k := 0; k < 5; k++ {
			mu.Lock()
			now = float64(obj*10 + k)
			mu.Unlock()
			get(t, srv.URL, obj)
		}
	}
	spilled := model.ObjectID(-1)
	for obj := model.ObjectID(0); obj < 8 && spilled < 0; obj++ {
		if n.SpillContains(obj) && !n.Contains(obj) {
			spilled = obj
		}
	}
	if spilled < 0 {
		t.Fatalf("no spilled-but-not-cached object found: %+v", n.BodyStats())
	}
	postInvalidate(t, srv.URL, int(spilled))
	if n.SpillContains(spilled) {
		t.Fatal("the spilled copy survived the invalidation that raised its floor")
	}
	bytesMatchDescriptors(t, []*Node{n})
}

// TestDrainMidFetchLandsInvalidationTail: a drain that lands while the
// upstream fetch is in flight routes the node around, but the response's
// invalidation tail still lands there: the floor rises and the PSI cursor
// advances.
func TestDrainMidFetchLandsInvalidationTail(t *testing.T) {
	n := NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
	n.EnableCoherency(coherency.ModeCAS)
	n.Client = &http.Client{Transport: stubUpstream(func(*http.Request) *http.Response {
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cascade/admin/drain", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("drain inside RoundTrip: status %d", rec.Code)
		}
		h := http.Header{}
		h.Set(HeaderHit, "origin")
		h.Set(HeaderDecision, "0;1=0;5|5:9:3")
		return &http.Response{StatusCode: http.StatusOK, Header: h, ContentLength: 3,
			Body: io.NopCloser(strings.NewReader("abc"))}
	})}
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
	if rec.Code != http.StatusOK || n.Contains(7) {
		t.Fatalf("status %d, cached %v: want a relay", rec.Code, n.Contains(7))
	}
	if v := n.CoherencyView(); v.Floor(9) != 3 || v.Cursor() != 5 {
		t.Fatalf("floor %d, cursor %d after the tail; want 3 and 5", v.Floor(9), v.Cursor())
	}
}
