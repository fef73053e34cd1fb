package httpgw

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cascade/internal/cache"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/span"
	"cascade/internal/trace"
)

// chain builds origin ← nodeK ← … ← node0 over httptest servers and
// returns the client-facing base URL, the nodes bottom-up, and a settable
// logical clock.
func chain(t *testing.T, levels int, capacity int64) (string, []*Node, func(float64)) {
	t.Helper()
	base, nodes, setNow, _ := chainWith(t, levels, capacity, nil)
	return base, nodes, setNow
}

// chainWith is chain with a per-node setup hook (run before the node
// serves) and the servers' closer handed back: Close waits for every
// handler to return, which a test reading state a handler writes on its way
// out — the span ring, filled by a deferred Collect — must do first.
func chainWith(t *testing.T, levels int, capacity int64, setup func(*Node)) (string, []*Node, func(float64), func()) {
	t.Helper()
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	setNow := func(v float64) {
		mu.Lock()
		now = v
		mu.Unlock()
	}

	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 500 }})
	servers := []*httptest.Server{origin}

	upstream := origin.URL
	nodes := make([]*Node, levels)
	for i := levels - 1; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, float64(i+1), capacity, 100, clock)
		if setup != nil {
			setup(n)
		}
		srv := httptest.NewServer(n)
		servers = append(servers, srv)
		upstream = srv.URL
		nodes[i] = n
	}
	closeAll := func() {
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
	}
	t.Cleanup(closeAll)
	return upstream, nodes, setNow, closeAll
}

func get(t *testing.T, base string, obj int) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/objects/" + strconv.Itoa(obj))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHTTPChainEndToEnd(t *testing.T) {
	base, nodes, setNow := chain(t, 3, 100000)

	// First request: origin serves, nothing cached yet.
	setNow(0)
	resp, body := get(t, base, 42)
	if resp.StatusCode != http.StatusOK || len(body) != 500 {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("first request served by %q", resp.Header.Get(HeaderHit))
	}

	// Second request: descriptors were seeded on the first pass; empty
	// caches → the client-side node (largest penalty) must cache it.
	setNow(10)
	resp, body2 := get(t, base, 42)
	if resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("second request served by %q", resp.Header.Get(HeaderHit))
	}
	if string(body2) != string(body) {
		t.Fatal("payload changed between fetches")
	}
	if !nodes[0].Contains(42) {
		t.Fatal("client-side node did not cache after second request")
	}

	// Third request: served by node 0, payload identical.
	setNow(20)
	resp, body3 := get(t, base, 42)
	if resp.Header.Get(HeaderHit) != "0" {
		t.Fatalf("third request served by %q, want node 0", resp.Header.Get(HeaderHit))
	}
	if string(body3) != string(body) {
		t.Fatal("cached payload differs from origin payload")
	}
}

func TestHTTPPenaltyCounter(t *testing.T) {
	base, nodes, setNow := chain(t, 2, 100000)
	setNow(0)
	get(t, base, 7)
	setNow(10)
	resp, _ := get(t, base, 7) // placed at node 0
	if !nodes[0].Contains(7) {
		t.Fatal("node 0 did not cache")
	}
	// The response reaching the client has the counter reset at the
	// caching point (node 0 is the last hop, so the client sees 0).
	if got := penaltyOf(resp.Header); got != "0" {
		t.Fatalf("penalty header = %q, want 0", got)
	}
	// Node 1's d-cache descriptor carries its distance to the origin.
	d := nodes[1].st.DCacheAt(0).Get(7)
	if d == nil || d.MissPenalty() != 2 {
		t.Fatalf("node 1 descriptor penalty = %+v, want 2", d)
	}
}

func TestHTTPUnknownPath(t *testing.T) {
	base, _, _ := chain(t, 1, 1000)
	// The bare root has no object identity and must 404.
	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("root status = %d", resp.StatusCode)
	}
	// Arbitrary paths are valid objects (hashed identity) against a
	// synthetic origin: they serve and carry protocol headers.
	resp, err = http.Get(base + "/any/path.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderHit) == "" {
		t.Fatalf("hashed path: status=%d hit=%q", resp.StatusCode, resp.Header.Get(HeaderHit))
	}
}

func TestHTTPConcurrentClients(t *testing.T) {
	base, _, setNow := chain(t, 3, 1<<20)
	setNow(1)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(base + "/objects/" + strconv.Itoa(i%10))
				if err != nil {
					errs <- err.Error()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || len(body) != 500 {
					errs <- "bad response"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

func TestPathHeaderRoundTrip(t *testing.T) {
	in := []engine.Candidate{
		{Hop: 0, Node: 3, Tag: engine.TagCandidate, Freq: 0.25, CostLoss: 1.5, Link: 0.1},
		{Hop: 1, Node: 7, Tag: engine.TagNoDescriptor, Link: 0.2},
	}
	header := formatEntry(in[0]) + "," + formatEntry(in[1])
	out, err := parsePath(header)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	// The cannot-fit tag collapses onto the "no descriptor" encoding —
	// the documented lossy-but-harmless divergence of this transport.
	cf := engine.Candidate{Hop: 0, Node: 3, Tag: engine.TagCannotFit, Link: 0.5}
	out, err = parsePath(formatEntry(cf))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Tag != engine.TagNoDescriptor || out[0].Link != 0.5 {
		t.Fatalf("cannot-fit entry parsed as %+v", out)
	}
	if es, err := parsePath(""); err != nil || es != nil {
		t.Fatal("empty header should parse to nil")
	}
	for _, bad := range []string{"x", "1;2;3", "a;0.5;0.5;0.1", "1;z;0.5;0.1", "1;0.5;z;0.1", "1;0.5;0.5;z"} {
		if _, err := parsePath(bad); err == nil {
			t.Fatalf("bad header %q accepted", bad)
		}
	}
}

// TestPathHeaderFloatExact quick-checks that every finite float64 survives
// the header's format→parse cycle bit-exactly (strconv.FormatFloat with
// precision -1 guarantees the shortest round-tripping representation; the
// old %g formatting truncated long mantissas).
func TestPathHeaderFloatExact(t *testing.T) {
	roundTrip := func(freq, loss, link float64) bool {
		in := engine.Candidate{Hop: 0, Node: 1, Tag: engine.TagCandidate,
			Freq: math.Abs(freq), CostLoss: math.Abs(loss), Link: math.Abs(link)}
		out, err := parsePath(formatEntry(in))
		return err == nil && len(out) == 1 && out[0] == in
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// A value %g loses at default precision must survive too.
	if !roundTrip(0.1234567890123456789, 1.0/3.0, math.Pi) {
		t.Fatal("long-mantissa floats did not round-trip")
	}
}

// decideHeader runs the serving paths' decision step unobserved and returns
// the X-Cascade-Decision value a serving point sends.
func decideHeader(entries []engine.Candidate) string {
	d := decision{place: decideObserved(entries, 0, 0, nil, model.NoNode, nil, 0)}
	d.encode()
	return "0" + d.rest
}

func TestDecideMatchesDP(t *testing.T) {
	// Empty caches, equal frequencies: the client-most candidate wins
	// (max penalty, zero loss), as in the scheme tests.
	entries := []engine.Candidate{
		{Hop: 0, Node: 0, Tag: engine.TagCandidate, Freq: 1, CostLoss: 0, Link: 1}, // client side
		{Hop: 1, Node: 1, Tag: engine.TagCandidate, Freq: 1, CostLoss: 0, Link: 1},
		{Hop: 2, Node: 2, Tag: engine.TagNoDescriptor, Link: 1}, // tagged: excluded
	}
	// Δcost of the lone placement: f·m − l = 1·3 − 0.
	place := decideObserved(entries, 0, 0, nil, model.NoNode, nil, 0)
	if len(place) != 1 || place[0] != (engine.Prediction{Node: 0, Term: 3}) {
		t.Fatalf("placement = %v, want node 0 at 3", place)
	}
	if _, d, ok := parseDecision(decideHeader(entries)); !ok || !reflect.DeepEqual(d.place, place) {
		t.Fatalf("decision header round trip: %v", d.place)
	}
}

// TestPlacementHeaderDeterministic pins the placement's encoding in
// X-Cascade-Decision: node IDs ascending, no dependence on map iteration
// order.
func TestPlacementHeaderDeterministic(t *testing.T) {
	entries := []engine.Candidate{
		{Hop: 0, Node: 9, Tag: engine.TagCandidate, Freq: 1, CostLoss: 0, Link: 1},
		{Hop: 1, Node: 4, Tag: engine.TagCandidate, Freq: 2, CostLoss: 0, Link: 1},
		{Hop: 2, Node: 6, Tag: engine.TagCandidate, Freq: 3, CostLoss: 0, Link: 1},
	}
	want := decideHeader(entries)
	for i := 0; i < 50; i++ {
		if got := decideHeader(entries); got != want {
			t.Fatalf("placement header unstable: %q vs %q", got, want)
		}
	}
	_, d, ok := parseDecision(want)
	if !ok || len(d.place) < 2 {
		t.Fatalf("decision %q places %v; want two or more nodes", want, d.place)
	}
	for i := 1; i < len(d.place); i++ {
		if d.place[i].Node <= d.place[i-1].Node {
			t.Fatalf("placement header not ascending: %q", want)
		}
	}
}

// TestHTTPMatchesSimulationScheme replays a serial workload through the
// HTTP chain and through scheme.Coordinated on the equivalent path; serving
// node and cached copies must agree on every request (the httpgw analogue
// of the runtime package's cross-validation).
func TestHTTPMatchesSimulationScheme(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{
		Objects:  150,
		Servers:  1,
		Clients:  1,
		Requests: 3000,
		Duration: 3600,
		Seed:     41,
		MaxSize:  4096, // keep HTTP payloads small
	})
	cat := gen.Catalog()
	capacity := int64(0.05 * float64(cat.TotalBytes))

	base, nodes, setNow := chain(t, 3, capacity)

	sch := scheme.NewCoordinated()
	sch.Configure(scheme.Uniform([]model.NodeID{0, 1, 2}, capacity, 100))
	// The HTTP chain's link costs: node i → upstream costs i+1.
	path := scheme.Path{Nodes: []model.NodeID{0, 1, 2}, UpCost: []float64{1, 2, 3}}

	for i := 0; ; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		setNow(req.Time)
		resp, body := get(t, base, int(req.Object))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		// The scheme sees the object's real payload size (the origin
		// serves 500B bodies regardless of catalog size, so use the
		// body length for both sides).
		out := sch.Process(req.Time, req.Object, int64(len(body)), path)

		wantHit := "origin"
		if out.HitIndex < 3 {
			wantHit = strconv.Itoa(out.HitIndex)
		}
		if got := resp.Header.Get(HeaderHit); got != wantHit {
			t.Fatalf("request %d (obj %d): http served by %q, scheme by %q",
				i, req.Object, got, wantHit)
		}
		for idx, n := range nodes {
			want := sch.Cache(model.NodeID(idx)).Contains(req.Object)
			if got := n.Contains(req.Object); got != want {
				t.Fatalf("request %d: node %d holds=%v, scheme holds=%v",
					i, idx, got, want)
			}
		}
	}
}

func TestFileOriginAndHashedPaths(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	want := []byte("hello cascaded caches")
	if err := os.WriteFile(filepath.Join(dir, "docs", "intro.txt"), want, 0o644); err != nil {
		t.Fatal(err)
	}

	origin := httptest.NewServer(&Origin{Dir: dir})
	t.Cleanup(origin.Close)
	clock := func() float64 { return 1 }
	node := NewNode(0, origin.URL, 1, 1<<20, 100, clock)
	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)

	fetch := func() (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + "/docs/intro.txt")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	resp, body := fetch()
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("served by %q", resp.Header.Get(HeaderHit))
	}
	// Second fetch places at the single node; third is a local hit with
	// identical bytes.
	fetch()
	resp, body = fetch()
	if resp.Header.Get(HeaderHit) != "0" || string(body) != string(want) {
		t.Fatalf("cached fetch: hit=%q body=%q", resp.Header.Get(HeaderHit), body)
	}
	// Missing file and traversal attempts 404.
	for _, p := range []string{"/docs/absent.txt", "/../etc/passwd"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("path %q served", p)
		}
	}
}

func TestObjectIDHashingStable(t *testing.T) {
	r1, _ := http.NewRequest("GET", "http://x/a/b.css", nil)
	r2, _ := http.NewRequest("GET", "http://y/a/b.css", nil) // different host, same path
	r3, _ := http.NewRequest("GET", "http://x/other", nil)
	id1, err1 := objectID(r1)
	id2, err2 := objectID(r2)
	id3, err3 := objectID(r3)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if id1 != id2 {
		t.Fatal("same path hashed differently")
	}
	if id1 == id3 {
		t.Fatal("different paths collided (astronomically unlikely)")
	}
	if id1 < 0 {
		t.Fatal("hashed id negative")
	}
	rr, _ := http.NewRequest("GET", "http://x/", nil)
	if _, err := objectID(rr); err == nil {
		t.Fatal("root path accepted")
	}
	rneg, _ := http.NewRequest("GET", "http://x/objects/-4", nil)
	if _, err := objectID(rneg); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestNodeSnapshotWarmRestart(t *testing.T) {
	base, nodes, setNow := chain(t, 1, 1<<20)
	setNow(0)
	get(t, base, 11)
	setNow(10)
	get(t, base, 11) // placed at the node
	if !nodes[0].Contains(11) {
		t.Fatal("object not cached before snapshot")
	}
	var buf bytes.Buffer
	if err := nodes[0].SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh node warm-starts from the snapshot and serves the object
	// locally, bytes intact.
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 500 }})
	t.Cleanup(origin.Close)
	fresh := NewNode(0, origin.URL, 1, 1<<20, 100, func() float64 { return 20 })
	restored, err := fresh.LoadSnapshot(&buf, 20)
	if err != nil || restored != 1 {
		t.Fatalf("restored=%d err=%v", restored, err)
	}
	srv := httptest.NewServer(fresh)
	t.Cleanup(srv.Close)
	resp, body := get(t, srv.URL, 11)
	if resp.Header.Get(HeaderHit) != "0" || len(body) != 500 {
		t.Fatalf("warm-started node did not serve: hit=%q len=%d",
			resp.Header.Get(HeaderHit), len(body))
	}
	// Garbage snapshot rejected.
	if _, err := fresh.LoadSnapshot(bytes.NewReader([]byte("junk")), 0); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestLoadSnapshotRefusesInconsistentEntries loads a snapshot whose entries
// are hostile one way each; only the consistent one may be restored, and
// the body store must still hold exactly the bytes the descriptors count.
func TestLoadSnapshotRefusesInconsistentEntries(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 500)
	times := []float64{1, 2}
	snap := nodeSnapshot{
		Descriptors: []cache.DescriptorSnapshot{
			{ID: 1, Size: 500, MissPenalty: 1, AccessTimes: times},
			{ID: 2, Size: 200, MissPenalty: 1, AccessTimes: times}, // body is 500 bytes
			{ID: 3, Size: -500, MissPenalty: 1, AccessTimes: times},
			{ID: 4, Size: 500, MissPenalty: math.NaN(), AccessTimes: times},
			{ID: 5, Size: 500, MissPenalty: 1, AccessTimes: []float64{2, 1}},
		},
		Bodies: map[model.ObjectID][]byte{1: body, 2: body, 3: body, 4: body, 5: body},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, "http://127.0.0.1:1", 1, 1<<20, 100, func() float64 { return 20 })
	restored, err := n.LoadSnapshot(&buf, 20)
	if err != nil || restored != 1 || !n.Contains(1) {
		t.Fatalf("restored=%d err=%v contains(1)=%v; want only object 1", restored, err, n.Contains(1))
	}
	if mem, used := n.bodies.Stats().MemBytes, n.st.Used(); mem != used || used != 500 {
		t.Fatalf("body store holds %d bytes, descriptor store %d; want 500 each", mem, used)
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// gobUint is gob's encoding of an unsigned count: one byte below 128, else
// the negated byte count and the big-endian bytes.
func gobUint(x uint64) []byte {
	if x < 128 {
		return []byte{byte(x)}
	}
	var b []byte
	for ; x > 0; x >>= 8 {
		b = append([]byte{byte(x)}, b...)
	}
	return append([]byte{byte(-len(b))}, b...)
}

// TestLoadSnapshotCapped: a snapshot stream is read through the node's
// snapshot cap (capacity plus maxAbsorbBytes), so a well-formed 64 MiB
// snapshot — one descriptor and its 64 MiB body, streamed without being
// built — fails against a 1 MiB node, restores nothing and costs the
// loader a bounded allocation: the read stops at the 9 MiB cap, inside the
// first 10 MiB chunk gob reads a long message in.
func TestLoadSnapshotCapped(t *testing.T) {
	const big = 64 << 20
	marker := []byte("\xde\xad\xbe\xef")
	tmpl := nodeSnapshot{
		Descriptors: []cache.DescriptorSnapshot{{ID: 1, Size: big, MissPenalty: 1, AccessTimes: []float64{1, 2}}},
		Bodies:      map[model.ObjectID][]byte{1: marker},
	}
	// Encoded twice, the template's second message is its value alone; what
	// precedes the first is gob's type preamble.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(tmpl); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(tmpl); err != nil {
		t.Fatal(err)
	}
	msg := buf.Bytes()[first:]
	if msg[0] >= 128 {
		t.Fatalf("template message of %d bytes needs a longer length prefix", len(msg))
	}
	pre, val := buf.Bytes()[:first-len(msg)], msg[1:]
	i := bytes.Index(val, marker)
	if i < 1 || val[i-1] != byte(len(marker)) {
		t.Fatal("body not found in the template")
	}
	head, tail, bodyLen := val[:i-1], val[i+len(marker):], gobUint(big)
	stream := io.MultiReader(bytes.NewReader(pre),
		bytes.NewReader(gobUint(uint64(len(head)+len(bodyLen)+big+len(tail)))),
		bytes.NewReader(head), bytes.NewReader(bodyLen), io.LimitReader(zeros{}, big), bytes.NewReader(tail))

	n := NewNode(0, "http://127.0.0.1:1", 1, 1<<20, 100, func() float64 { return 20 })
	var restored int
	var err error
	alloc := allocDuring(func() { restored, err = n.LoadSnapshot(stream, 20) })
	if err == nil || restored != 0 || n.Contains(1) || n.BodyStats().MemObjects != 0 {
		t.Fatalf("restored %d, err %v, cached %v; want an error and nothing restored", restored, err, n.Contains(1))
	}
	if alloc >= 24<<20 {
		t.Fatalf("loading a 64 MiB snapshot allocated %d bytes; want under 24 MiB", alloc)
	}
}

func TestStatsEndpoint(t *testing.T) {
	base, _, setNow := chain(t, 1, 1<<20)
	setNow(0)
	get(t, base, 3)
	setNow(10)
	get(t, base, 3) // placed
	setNow(20)
	get(t, base, 3) // hit
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(base + "/cascade/stats")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("stats response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var st struct {
		Hits, Misses, Inserts, Objects int64
		UsedBytes                      int64 `json:"used_bytes"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	if st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 || st.Objects != 1 {
		t.Fatalf("stats: %+v (%s)", st, body)
	}
	if st.UsedBytes <= 0 {
		t.Fatalf("used bytes = %d", st.UsedBytes)
	}
}

func TestTTLRevalidation304(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	setNow := func(v float64) { mu.Lock(); now = v; mu.Unlock() }

	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 400 }})
	t.Cleanup(origin.Close)
	node := NewNode(0, origin.URL, 1, 1<<20, 100, clock)
	node.TTL = 100
	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)

	setNow(0)
	get(t, srv.URL, 9)
	setNow(10)
	get(t, srv.URL, 9) // placed, fetched=10
	setNow(20)
	resp, _ := get(t, srv.URL, 9) // fresh hit
	if resp.Header.Get(HeaderHit) != "0" {
		t.Fatalf("fresh hit served by %q", resp.Header.Get(HeaderHit))
	}
	// Past the TTL: the copy revalidates with a 304 (origin bytes are
	// deterministic, so the validator matches) and serves locally.
	setNow(200)
	resp, body := get(t, srv.URL, 9)
	if resp.Header.Get(HeaderHit) != "0" || len(body) != 400 {
		t.Fatalf("revalidated hit: %q len=%d", resp.Header.Get(HeaderHit), len(body))
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("no validator on response")
	}
	st, _ := http.Get(srv.URL + "/cascade/stats")
	b, _ := io.ReadAll(st.Body)
	st.Body.Close()
	var stats struct{ Revalidations int64 }
	if err := json.Unmarshal(b, &stats); err != nil || stats.Revalidations != 1 {
		t.Fatalf("revalidations = %d (%s)", stats.Revalidations, b)
	}
}

func TestTTLRevalidationContentChanged(t *testing.T) {
	// A mutable origin: body changes between fetches, so revalidation
	// gets 200 and the gateway refetches through the normal path.
	var mu sync.Mutex
	version := byte('a')
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		body := make([]byte, 100)
		for i := range body {
			body[i] = version
		}
		mu.Unlock()
		tag := etagOf(body)
		w.Header().Set("ETag", tag)
		w.Header().Set(HeaderHit, "origin")
		// Let the node's own hop decide placement for itself.
		entries, _ := parsePath(r.Header.Get(headerPath))
		w.Header().Set(HeaderDecision, decideHeader(entries))
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write(body) //nolint:errcheck
	}))
	t.Cleanup(origin.Close)

	now := 0.0
	var cmu sync.Mutex
	clock := func() float64 { cmu.Lock(); defer cmu.Unlock(); return now }
	setNow := func(v float64) { cmu.Lock(); now = v; cmu.Unlock() }
	node := NewNode(0, origin.URL, 1, 1<<20, 100, clock)
	node.TTL = 50
	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)

	setNow(0)
	get(t, srv.URL, 4)
	setNow(10)
	_, body := get(t, srv.URL, 4) // cached 'aaaa…'
	if body[0] != 'a' {
		t.Fatalf("body = %q", body[0])
	}
	// Mutate the origin, expire the copy.
	mu.Lock()
	version = 'b'
	mu.Unlock()
	setNow(100)
	resp, body := get(t, srv.URL, 4)
	if body[0] != 'b' {
		t.Fatalf("stale body served after content change: %q", body[0])
	}
	if resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("changed content served by %q, want origin", resp.Header.Get(HeaderHit))
	}
}

// TestRevalidatedCopyDecidesLikeAHit: a copy past Node.TTL whose upstream
// answers the conditional GET with a 304 is served as a hit is — with the
// decision over the path below — so a request carrying a path entry the
// DP chooses gets the same X-Cascade-Decision from the revalidated copy as
// from a fresh one.
func TestRevalidatedCopyDecidesLikeAHit(t *testing.T) {
	base, nodes, setNow := chain(t, 1, 1<<20)
	node := nodes[0]
	node.TTL = 100
	setNow(0)
	get(t, base, 9)
	setNow(10)
	get(t, base, 9) // placed, fetched at 10
	if !node.Contains(9) {
		t.Fatal("warm-up did not place a copy")
	}
	below := []engine.Candidate{{Node: 7, Tag: engine.TagCandidate, Freq: 50, CostLoss: 0, Link: 1}}
	ask := func(now float64) *http.Response {
		t.Helper()
		setNow(now)
		req, _ := http.NewRequest(http.MethodGet, base+"/objects/9", nil)
		writePath(req.Header, below, span.Ctx{})
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}
	fresh := ask(20)
	if fresh.Header.Get(HeaderHit) != "0" || !strings.HasPrefix(fresh.Header.Get(HeaderDecision), "0;7=") {
		t.Fatalf("fresh hit: served by %q, decision %q; want node 0, place 7", fresh.Header.Get(HeaderHit), fresh.Header.Get(HeaderDecision))
	}
	revalidated := ask(200)
	if node.revalidations.Load() != 1 {
		t.Fatalf("%d revalidations, want 1", node.revalidations.Load())
	}
	for _, h := range []string{HeaderHit, HeaderDecision, "ETag"} {
		if got, want := revalidated.Header.Get(h), fresh.Header.Get(h); got != want {
			t.Errorf("%s from the revalidated copy = %q, from the fresh one %q", h, got, want)
		}
	}
}

// TestHitAnswersConditionalGET: a node's hit honours If-None-Match as the
// origin does, so a TTL revalidation at the lower node of a two-node chain
// whose upper node holds a fresh copy is answered 304 by the upper node —
// no body crosses the link, and the lower node counts a revalidation, not a
// miss.
func TestHitAnswersConditionalGET(t *testing.T) {
	answers := &revalidationAnswers{rt: NewUpstreamClient(DefaultUpstreamTimeout).Transport}
	base, nodes, setNow, _ := chainWith(t, 2, 1<<20, func(n *Node) {
		if n.ID == 0 {
			n.TTL = 100
			n.Client = &http.Client{Transport: answers}
		}
	})
	lower, upper := nodes[0], nodes[1]
	upperURL := nodeURL(t, base, nodes, 1)
	for i, url := range []string{upperURL, upperURL, base, base} {
		setNow(float64(10 * i))
		get(t, url, 5)
	}
	if !lower.Contains(5) || !upper.Contains(5) {
		t.Fatalf("warm-up placed lower %v, upper %v; want both", lower.Contains(5), upper.Contains(5))
	}
	misses, upperHits := lower.misses.Load(), upper.hits.Load()
	setNow(500)
	resp, body := get(t, base, 5)
	if resp.StatusCode != http.StatusOK || len(body) != 500 || resp.Header.Get(HeaderHit) != "0" {
		t.Fatalf("revalidated answer: status %d, %d bytes, served by %q", resp.StatusCode, len(body), resp.Header.Get(HeaderHit))
	}
	if got := lower.revalidations.Load(); got != 1 {
		t.Errorf("lower node: %d revalidations, want 1", got)
	}
	if got := lower.misses.Load(); got != misses {
		t.Errorf("lower node: misses %d → %d, want unchanged", misses, got)
	}
	if got := upper.hits.Load(); got != upperHits+1 {
		t.Errorf("upper node: hits %d → %d, want one more", upperHits, got)
	}
	if nm, other := answers.notModified.Load(), answers.other.Load(); nm != 1 || other != 0 {
		t.Errorf("conditional GETs answered 304: %d, otherwise: %d; want 1, 0", nm, other)
	}
}
