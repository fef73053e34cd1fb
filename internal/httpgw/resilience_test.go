package httpgw

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/controlplane"
	"cascade/internal/model"
	"cascade/internal/store"
)

// TestNilClientDefaultTimeout: a nil Client must resolve to the shared
// default — never http.DefaultClient, which has no timeout — and the budget
// must hold behaviourally: a hung upstream fails within it, a node's loop
// and a plain HTTP server alike. The default carries no
// http.Client.Timeout (on its transport that would cost a goroutine and a
// timer per request); the transport enforces DefaultUpstreamTimeout.
func TestNilClientDefaultTimeout(t *testing.T) {
	n := NewNode(0, "http://unused", 1, 1000, 10, func() float64 { return 0 })
	c := n.client()
	if c == http.DefaultClient {
		t.Fatal("nil Client resolved to http.DefaultClient")
	}
	if tr, ok := c.Transport.(*upstreamTransport); !ok || tr.timeout != DefaultUpstreamTimeout {
		t.Fatalf("default client rides %T, want the upstream transport with a %v budget", c.Transport, DefaultUpstreamTimeout)
	}
	explicit := &http.Client{Timeout: time.Second}
	n.Client = explicit
	if n.client() != explicit {
		t.Fatal("explicit Client not honored")
	}

	release := make(chan struct{})
	defer close(release)
	hang := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hang" {
			hang(w, r)
		}
	}))
	defer plain.Close()
	peer := NewNode(1, plain.URL, 1, 1000, 10, func() float64 { return 0 })
	hop := httptest.NewServer(edgeRecorder(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hang" {
			hang(w, r)
			return
		}
		peer.ServeHTTP(w, r)
	}))
	defer hop.Close()

	const budget = 100 * time.Millisecond
	client := NewUpstreamClient(budget)
	for _, tc := range []struct{ name, base, first string }{
		{"loop", hop.URL, "/cascade/health"},
		{"http", plain.URL, "/"},
	} {
		// The first exchange makes the node's loop take the connection over
		// for the hung one.
		resp, err := client.Get(tc.base + tc.first)
		if err != nil {
			t.Fatalf("%s: first exchange: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		start := time.Now()
		if resp, err = client.Get(tc.base + "/hang"); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if elapsed := time.Since(start); err == nil || elapsed > 20*budget {
			t.Fatalf("%s: a hung upstream answered err=%v after %v; want an error within the %v budget", tc.name, err, elapsed, budget)
		}
	}
}

// TestDefaultClientKeepsAHopsConnections: a hop with eight misses in flight
// at once must keep eight upstream connections, not two. Borrowed from
// http.DefaultTransport, the nil-Client default kept two idle connections per
// host, so every round of eight concurrent misses dialed six more — hundreds
// over this test; with its own pool the hop dials once per concurrent miss.
// The allowance of a second set dates from net/http's pool, which on a
// loaded box declined to reuse a connection whose request-write goroutine
// had not reported back within 50 ms. The bound holds for the default
// client and for one built with its own budget (cascadegw -up-timeout). The
// upstream is an origin, which the client's own connections carry; the
// https transport it keeps names no proxy and asks for no compression.
func TestDefaultClientKeepsAHopsConnections(t *testing.T) {
	for _, client := range []*http.Client{nil, NewUpstreamClient(time.Minute)} {
		var dials atomic.Int64
		up := httptest.NewUnstartedServer(&Origin{Size: func(model.ObjectID) int { return 500 }})
		up.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}
		up.Start()
		defer up.Close()

		n := NewNode(0, up.URL, 1, 10000, 100, func() float64 { return 0 })
		n.Client = client
		const concurrent, rounds = 8, 200
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for g := 0; g < concurrent; g++ {
				wg.Add(1)
				go func(obj int) {
					defer wg.Done()
					w := newDiscardWriter()
					n.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/objects/"+strconv.Itoa(obj), nil))
					if w.status != http.StatusOK || w.n != 500 || w.header.Get(HeaderHit) != "origin" {
						t.Errorf("cold miss of %d: status %d, %d bytes, served by %q", obj, w.status, w.n, w.header.Get(HeaderHit))
					}
				}(round*concurrent + g)
			}
			wg.Wait()
		}
		if got := dials.Load(); got > 2*concurrent {
			t.Fatalf("%d rounds of %d concurrent misses dialed the upstream %d times; want at most %d", rounds, concurrent, got, 2*concurrent)
		}

		ut, ok := n.client().Transport.(*upstreamTransport)
		if !ok {
			t.Fatalf("upstream client rides %T, want the upstream transport", n.client().Transport)
		}
		tr := ut.fallback
		if tr == nil || tr == http.DefaultTransport {
			t.Fatal("upstream transport falls back on http.DefaultTransport for https, want its own *http.Transport")
		}
		if tr.Proxy != nil || !tr.DisableCompression {
			t.Fatalf("fallback transport: proxy set %v, compression disabled %v", tr.Proxy != nil, tr.DisableCompression)
		}
	}
}

// TestHangingUpstreamOriginFallback: an upstream that never answers must
// not wedge the gateway — the client timeout fires and the node serves the
// bytes straight from the origin, marked degraded.
func TestHangingUpstreamOriginFallback(t *testing.T) {
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 500 }})
	defer origin.Close()
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the connection until the caller gives up
	}))
	defer hang.Close()

	n := NewNode(0, hang.URL, 1, 10000, 100, func() float64 { return 0 })
	n.Client = &http.Client{Timeout: 50 * time.Millisecond}
	n.OriginURL = origin.URL
	n.MaxRetries = -1
	srv := httptest.NewServer(n)
	defer srv.Close()

	start := time.Now()
	resp, body := get(t, srv.URL, 7)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v — timeout did not bound the hang", elapsed)
	}
	if resp.StatusCode != http.StatusOK || len(body) != 500 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(headerDegraded) != "1" || resp.Header.Get(HeaderHit) != "origin" {
		t.Fatalf("headers: %v", resp.Header)
	}
	if n.Contains(7) {
		t.Fatal("degraded response was cached")
	}
}

// TestUpstreamRetrySucceeds: transient 503s are retried with backoff and
// the request ultimately succeeds through the protocol path.
func TestUpstreamRetrySucceeds(t *testing.T) {
	origin := &Origin{Size: func(model.ObjectID) int { return 500 }}
	var mu sync.Mutex
	attempts := 0
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		origin.ServeHTTP(w, r)
	}))
	defer up.Close()

	var pauses []time.Duration
	n := NewNode(0, up.URL, 1, 10000, 100, func() float64 { return 0 })
	n.Sleep = func(d time.Duration) { pauses = append(pauses, d) }
	srv := httptest.NewServer(n)
	defer srv.Close()

	resp, body := get(t, srv.URL, 11)
	if resp.StatusCode != http.StatusOK || len(body) != 500 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(headerDegraded) != "" {
		t.Fatal("successful retry marked degraded")
	}
	if len(pauses) != 2 {
		t.Fatalf("pauses %v, want 2 backoffs", pauses)
	}
	if pauses[1] <= pauses[0]/2 {
		t.Fatalf("backoff not growing: %v", pauses)
	}
	if h := n.UpstreamHealth(); h != controlplane.Healthy {
		t.Fatalf("upstream %v after a successful retry, want healthy", h)
	}
}

// TestUpstreamFailuresFailFast walks the upstream slot's machine on
// request outcomes alone (no prober): three failing exchanges make it Down,
// a Down upstream fails fast into degraded mode, the cooldown admits one
// trial and restarts, and two successful trials make it Healthy.
func TestUpstreamFailuresFailFast(t *testing.T) {
	var mu sync.Mutex
	now, failing, upCount := 0.0, true, 0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	set := func(t float64, fail bool) { mu.Lock(); now, failing = t, fail; mu.Unlock() }
	seen := func() int { mu.Lock(); defer mu.Unlock(); return upCount }

	origin := &Origin{Size: func(model.ObjectID) int { return 500 }}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		upCount++
		bad := failing
		mu.Unlock()
		if bad {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		origin.ServeHTTP(w, r)
	}))
	defer up.Close()

	n := NewNode(0, up.URL, 1, 10000, 100, clock)
	n.OriginURL = originSrv.URL
	n.MaxRetries = -1
	n.Sleep = func(time.Duration) {}
	srv := httptest.NewServer(n)
	defer srv.Close()
	obj := 100
	// expect GETs a fresh object and checks whether it was served degraded
	// and whether the upstream saw it.
	expect := func(step string, degraded, reached bool) {
		t.Helper()
		before := seen()
		resp, body := get(t, srv.URL, obj)
		obj++
		if resp.StatusCode != http.StatusOK || len(body) != 500 {
			t.Fatalf("%s: status %d, %d bytes", step, resp.StatusCode, len(body))
		}
		if got := resp.Header.Get(headerDegraded) == "1"; got != degraded {
			t.Fatalf("%s: degraded %v, want %v", step, got, degraded)
		}
		if got := seen() > before; got != reached {
			t.Fatalf("%s: the upstream saw the request: %v, want %v", step, got, reached)
		}
	}

	// Three failing exchanges make the upstream Down; each serves degraded.
	for i := 0; i < 3; i++ {
		expect("failing exchange", true, true)
	}
	if h := n.UpstreamHealth(); h != controlplane.Down {
		t.Fatalf("upstream %v after three failed exchanges, want down", h)
	}
	rec := httptest.NewRecorder()
	n.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/metrics", nil))
	if line := `cascade_gw_upstream_health{node="0",upstream="` + up.URL + `"} 2`; !strings.Contains(rec.Body.String(), line) {
		t.Fatalf("scrape lacks %s", line)
	}
	// Down: fail fast — the upstream does not see the 4th request.
	expect("fourth request", true, false)

	// The cooldown passes and the upstream heals: one trial goes up and is
	// served through the protocol; a second request inside the new cooldown
	// still fails fast.
	set(controlplane.Cooldown, false)
	expect("first trial", false, true)
	expect("inside the new cooldown", true, false)
	if h := n.UpstreamHealth(); h != controlplane.Down {
		t.Fatalf("upstream %v after one successful trial, want still down", h)
	}
	set(2*controlplane.Cooldown, false)
	expect("second trial", false, true)
	if h := n.UpstreamHealth(); h != controlplane.Healthy {
		t.Fatalf("upstream %v after two successful trials, want healthy", h)
	}
	expect("healthy", false, true)

	// The resilience counters surface in /stats.
	r2, err := http.Get(srv.URL + "/cascade/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(r2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if stats["upstream_health"] != "healthy" || stats["degraded"].(float64) != 5 {
		t.Fatalf("stats: %v", stats)
	}
}

// TestStaleIfError: a TTL-expired copy whose revalidation cannot reach the
// upstream is served stale (degraded) instead of failing.
func TestStaleIfError(t *testing.T) {
	var mu sync.Mutex
	now, failing := 0.0, false
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }

	origin := &Origin{Size: func(model.ObjectID) int { return 400 }}
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		bad := failing
		mu.Unlock()
		if bad {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		origin.ServeHTTP(w, r)
	}))
	defer up.Close()

	n := NewNode(0, up.URL, 1, 10000, 100, clock)
	n.TTL = 5
	n.MaxRetries = -1
	n.Sleep = func(time.Duration) {}
	srv := httptest.NewServer(n)
	defer srv.Close()

	// Two sightings cache the object at this node.
	get(t, srv.URL, 1)
	mu.Lock()
	now = 1
	mu.Unlock()
	get(t, srv.URL, 1)
	if !n.Contains(1) {
		t.Fatal("object not cached after second sighting")
	}

	// Expire the copy and kill the upstream: the stale copy still serves.
	mu.Lock()
	now = 20
	failing = true
	mu.Unlock()
	resp, body := get(t, srv.URL, 1)
	if resp.StatusCode != http.StatusOK || len(body) != 400 {
		t.Fatalf("stale serve: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(headerDegraded) != "1" {
		t.Fatal("stale-if-error response not marked degraded")
	}
	if resp.Header.Get(HeaderHit) != strconv.Itoa(int(n.ID)) {
		t.Fatalf("hit header %q", resp.Header.Get(HeaderHit))
	}
}

// deadURL returns the URL of a server that is already gone: every exchange
// with it fails at once.
func deadURL() string {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return srv.URL
}

// TestDegradedLargeObject: a degraded GET of an object the origin segments
// must deliver the whole object, not the origin's bodiless marker. Two
// shapes: the client-facing node's own upstream is dead, and a mid node's
// upstream is dead behind a healthy edge. The client gets the origin's 1 MiB
// byte for byte, marked degraded, and no hop holds anything afterwards.
func TestDegradedLargeObject(t *testing.T) {
	origin := httptest.NewServer(largeOrigin())
	defer origin.Close()
	want := store.SyntheticBody(7, obj1M)
	node := func(id model.NodeID, upstream string) (*Node, *httptest.Server) {
		n := NewNode(id, upstream, 1, 4*obj1M, 100, func() float64 { return 0 })
		n.OriginURL = origin.URL
		n.MaxRetries = -1
		n.Sleep = func(time.Duration) {}
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		return n, srv
	}

	single, singleSrv := node(0, deadURL())
	mid, midSrv := node(1, deadURL())
	edge, edgeSrv := node(0, midSrv.URL)
	edge.OriginURL = ""
	for _, tc := range []struct {
		name  string
		base  string
		nodes []*Node
	}{
		{"one node", singleSrv.URL, []*Node{single}},
		{"edge and mid", edgeSrv.URL, []*Node{edge, mid}},
	} {
		for i := 0; i < 3; i++ {
			resp, body := get(t, tc.base, 7)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("%s, GET %d: status %d, %d bytes; want 200 and the origin's %d", tc.name, i, resp.StatusCode, len(body), obj1M)
			}
			if resp.Header.Get(headerDegraded) != "1" {
				t.Fatalf("%s, GET %d: not marked degraded: %v", tc.name, i, resp.Header)
			}
		}
		for _, n := range tc.nodes {
			if k := n.st.StoreLen(); k != 0 {
				t.Fatalf("%s: node %d holds %d objects after degraded GETs", tc.name, n.ID, k)
			}
		}
	}
}

// TestDegradedMarkerRelayed: a degraded answer keeps its marker on its way
// down, and the hop that relays it takes no down step — its d-cache books
// no miss penalty for bytes that came from the origin, not through its
// upstream.
func TestDegradedMarkerRelayed(t *testing.T) {
	origin := httptest.NewServer(&Origin{Size: func(model.ObjectID) int { return 500 }})
	defer origin.Close()
	clock := func() float64 { return 0 }
	mid := NewNode(1, deadURL(), 5, 10000, 100, clock)
	mid.OriginURL = origin.URL
	mid.MaxRetries = -1
	mid.Sleep = func(time.Duration) {}
	midSrv := httptest.NewServer(mid)
	defer midSrv.Close()
	edge := NewNode(0, midSrv.URL, 1, 10000, 100, clock)
	edgeSrv := httptest.NewServer(edge)
	defer edgeSrv.Close()

	resp, body := get(t, edgeSrv.URL, 7)
	if resp.StatusCode != http.StatusOK || len(body) != 500 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(headerDegraded) != "1" {
		t.Fatalf("the edge dropped the degraded marker: %v", resp.Header)
	}
	if d := edge.st.DCacheAt(0).Get(7); d != nil && d.MissPenalty() != 0 {
		t.Fatalf("edge descriptor reads miss penalty %v after a degraded answer; want 0", d.MissPenalty())
	}
}

// TestDegradedMarkerMemo: a reassembly the client-facing node serves from
// its marker memo while its upstream is down degrades segment by segment,
// and the answer must say so. One healthy GET leaves the marker remembered;
// then the upstream answers 503 to everything, and the next GET must still
// deliver the origin's 1 MiB byte for byte, marked degraded, counted as a
// marker hit.
func TestDegradedMarkerMemo(t *testing.T) {
	o := largeOrigin()
	origin := httptest.NewServer(o)
	defer origin.Close()
	var down atomic.Bool
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer upstream.Close()
	n := NewNode(0, upstream.URL, 1, 4*obj1M, 100, func() float64 { return 0 })
	n.OriginURL = origin.URL
	n.MaxRetries = -1
	n.Sleep = func(time.Duration) {}
	srv := httptest.NewServer(n)
	defer srv.Close()
	want := store.SyntheticBody(7, obj1M)

	resp, body := get(t, srv.URL, 7)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) || resp.Header.Get(headerDegraded) != "" {
		t.Fatalf("healthy GET: status %d, %d bytes, degraded %q", resp.StatusCode, len(body), resp.Header.Get(headerDegraded))
	}
	down.Store(true)
	resp, body = get(t, srv.URL, 7)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("GET with the upstream down: status %d, %d bytes; want 200 and the origin's %d", resp.StatusCode, len(body), obj1M)
	}
	if resp.Header.Get(headerDegraded) != "1" {
		t.Fatalf("a reassembly from the marker memo with the upstream down is not marked degraded: %v", resp.Header)
	}
	if got := n.reassembly[reassemblyMarkerHit].Load(); got != 1 {
		t.Fatalf("marker_hit = %d, want 1", got)
	}
}
