package httpgw

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cascade/internal/model"
	"cascade/internal/store"
)

// countingOrigin wraps an Origin — or any hop — and counts the object
// requests it receives, split into segment fetches (X-Cascade-Segment
// present) and plain ones.
type countingOrigin struct {
	o        http.Handler
	plain    atomic.Int64
	segments atomic.Int64
}

func (c *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/objects/") {
		if r.Header.Get(HeaderSegment) != "" {
			c.segments.Add(1)
		} else {
			c.plain.Add(1)
		}
	}
	c.o.ServeHTTP(w, r)
}

func TestSpillServedFromDiskWithoutOriginFetch(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	setNow := func(v float64) { mu.Lock(); now = v; mu.Unlock() }

	const objSize = 1000
	co := &countingOrigin{o: &Origin{Size: func(model.ObjectID) int { return objSize }}}
	origin := httptest.NewServer(co)
	t.Cleanup(origin.Close)

	// Capacity of 3 objects: a working set of 8 forces NCL evictions.
	n := NewNode(1, origin.URL, 2.0, 3*objSize, 100, clock)
	if err := n.EnableSpill(t.TempDir(), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	// Make each object hot in turn: a burst of fetches seeds its descriptor
	// and gives it a recent reference window, so later objects displace
	// earlier ones — NCL evictions that the store spills to disk.
	for obj := 0; obj < 8; obj++ {
		for k := 0; k < 5; k++ {
			setNow(float64(obj*10 + k))
			resp, body := get(t, srv.URL, obj)
			if resp.StatusCode != http.StatusOK || len(body) != objSize {
				t.Fatalf("obj %d fetch %d: status %d, %d bytes", obj, k, resp.StatusCode, len(body))
			}
		}
	}
	bs := n.BodyStats()
	if bs.SpillObjectsTotal == 0 || bs.SpillBytesTotal == 0 {
		t.Fatalf("no spills after churn: %+v", bs)
	}

	// Find an object whose bytes live only on disk.
	spilled := model.ObjectID(-1)
	for obj := model.ObjectID(0); obj < 8; obj++ {
		if n.SpillContains(obj) && !n.Contains(obj) {
			spilled = obj
			break
		}
	}
	if spilled < 0 {
		t.Fatalf("no spilled-but-not-cached object found: %+v", bs)
	}

	// Re-request it: the node must serve it from disk — no origin fetch —
	// and promote it back to memory.
	before := co.plain.Load()
	setNow(100)
	resp, body := get(t, srv.URL, int(spilled))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spill re-request: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderHit); got != "1" {
		t.Fatalf("spill re-request served by %q, want node 1", got)
	}
	if co.plain.Load() != before {
		t.Fatal("spill re-request reached the origin")
	}
	if !bytes.Equal(body, store.SyntheticBody(spilled, objSize)) {
		t.Fatal("spilled payload corrupted")
	}
	if !n.Contains(spilled) {
		t.Fatal("spilled object not promoted back to the store")
	}

	bs = n.BodyStats()
	if bs.DiskHits == 0 || bs.Promotions == 0 {
		t.Fatalf("disk hit not accounted: %+v", bs)
	}

	// The stats endpoint and metrics expose the spill accounting.
	resp2, err := http.Get(srv.URL + "/cascade/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if stats["spill_bytes_total"].(float64) == 0 {
		t.Fatalf("stats spill_bytes_total = %v", stats["spill_bytes_total"])
	}
	if stats["spill_hits"].(float64) == 0 || stats["promotions"].(float64) == 0 {
		t.Fatalf("stats spill_hits/promotions = %v/%v", stats["spill_hits"], stats["promotions"])
	}
	mresp, err := http.Get(srv.URL + "/cascade/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "cascade_node_spill_bytes_total") {
		t.Fatal("cascade_node_spill_bytes_total series missing from scrape")
	}
}

func TestSegmentedLargeObjectEndToEnd(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	setNow := func(v float64) { mu.Lock(); now = v; mu.Unlock() }

	const (
		smallSize = 600
		largeSize = 10000 // > threshold → 3 segments of 4096
		segSize   = 4096
		largeObj  = 7
	)
	co := &countingOrigin{o: &Origin{
		Size: func(obj model.ObjectID) int {
			if obj == largeObj {
				return largeSize
			}
			return smallSize
		},
		SegmentThreshold: 4096,
		SegmentSize:      segSize,
	}}
	origin := httptest.NewServer(co)
	t.Cleanup(origin.Close)

	n1 := NewNode(2, origin.URL, 3.0, 1<<20, 100, clock)
	s1 := httptest.NewServer(n1)
	t.Cleanup(s1.Close)
	n0 := NewNode(1, s1.URL, 1.0, 1<<20, 100, clock)
	s0 := httptest.NewServer(n0)
	t.Cleanup(s0.Close)

	want := store.SyntheticBody(largeObj, largeSize)

	// Cold fetch: the client-facing node reassembles 3 origin segments.
	setNow(0)
	resp, body := get(t, s0.URL, largeObj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderSegmented); got != fmt.Sprintf("%d;%d", largeSize, segSize) {
		t.Fatalf("segmented marker %q", got)
	}
	if resp.ContentLength != largeSize {
		t.Fatalf("Content-Length %d, want %d", resp.ContentLength, largeSize)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("reassembled body differs from the origin payload")
	}
	if got := co.segments.Load(); got != 3 {
		t.Fatalf("cold fetch used %d origin segment requests, want 3", got)
	}

	// Warm fetches: descriptors seeded on the first pass, placements land
	// on later ones; within a few fetches every segment must be served from
	// the chain with zero origin segment traffic.
	served := false
	for attempt := 1; attempt <= 4 && !served; attempt++ {
		setNow(float64(attempt * 10))
		before := co.segments.Load()
		_, body := get(t, s0.URL, largeObj)
		if !bytes.Equal(body, want) {
			t.Fatalf("attempt %d: reassembled body diverged", attempt)
		}
		served = co.segments.Load() == before
	}
	if !served {
		t.Fatal("segments never fully served from the caches")
	}

	// Segments are first-class objects: at least one cache holds at least
	// one segment identity.
	cached := 0
	for idx := 0; idx < 3; idx++ {
		sid := store.SegmentID(largeObj, idx)
		if n0.Contains(sid) || n1.Contains(sid) {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("no segment identity cached anywhere")
	}

	// Small objects still travel whole.
	setNow(100)
	resp, body = get(t, s0.URL, 3)
	if resp.Header.Get(HeaderSegmented) != "" || len(body) != smallSize {
		t.Fatalf("small object segmented (marker %q, %d bytes)", resp.Header.Get(HeaderSegmented), len(body))
	}
}

// TestMalformedPenaltyHeaderCounted: a garbage penalty field makes the
// whole decision malformed — counted under header="decision", the answer
// relayed as one without a decision.
func TestMalformedPenaltyHeaderCounted(t *testing.T) {
	// An upstream that speaks just enough of the protocol but emits a
	// garbage penalty counter in front of a placement at the node.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderDecision, "not-a-number;1=0.5")
		w.Header().Set(HeaderHit, "origin")
		w.Header().Set("Content-Length", "3")
		w.Write([]byte("abc")) //nolint:errcheck
	}))
	t.Cleanup(bad.Close)

	n := NewNode(1, bad.URL, 2.0, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	resp, body := get(t, srv.URL, 5)
	if resp.StatusCode != http.StatusOK || string(body) != "abc" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	// Explicit fallback: the counter is treated as zero and the placement
	// dropped, so the outgoing decision is exactly the link cost.
	if got := resp.Header.Get(HeaderDecision); got != "2" {
		t.Fatalf("decision %q, want link cost 2 alone", got)
	}
	if n.badDecision.Load() != 1 || n.Contains(5) {
		t.Fatalf("badDecision = %d, placed %v; want 1 and no copy", n.badDecision.Load(), n.Contains(5))
	}

	mresp, err := http.Get(srv.URL + "/cascade/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	found := false
	for _, line := range strings.Split(string(mbody), "\n") {
		if strings.HasPrefix(line, "cascade_gw_bad_header_total") && strings.Contains(line, `header="decision"`) && strings.HasSuffix(line, " 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cascade_gw_bad_header_total{header=decision} not 1 in scrape:\n%s", mbody)
	}
}

func TestMalformedSegmentHeaderRejected(t *testing.T) {
	n := NewNode(1, "http://unused.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/objects/5", nil)
	req.Header.Set(HeaderSegment, "zero;garbage")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if n.badSegment.Load() != 1 {
		t.Fatalf("badSegment = %d, want 1", n.badSegment.Load())
	}
}

func TestRelayHopStreamsWithContentLength(t *testing.T) {
	// Three-level chain with a big shared cache: after warmup the copy
	// sits at one node; the node below it relays. Every hop must carry an
	// explicit Content-Length.
	base, _, setNow := chain(t, 3, 1<<20)
	for i := 0; i < 4; i++ {
		setNow(float64(i * 10))
		resp, body := get(t, base, 9)
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("fetch %d: Content-Length %d, body %d bytes", i, resp.ContentLength, len(body))
		}
		if len(body) != 500 {
			t.Fatalf("fetch %d: %d bytes", i, len(body))
		}
	}
}

func TestDrainSpillsPayloadsToDisk(t *testing.T) {
	var mu sync.Mutex
	now := 0.0
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }

	co := &countingOrigin{o: &Origin{Size: func(model.ObjectID) int { return 400 }}}
	origin := httptest.NewServer(co)
	t.Cleanup(origin.Close)

	n := NewNode(1, origin.URL, 2.0, 1<<20, 100, clock)
	if err := n.EnableSpill(t.TempDir(), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n)
	t.Cleanup(srv.Close)

	for i := 0; i < 3; i++ {
		mu.Lock()
		now = float64(i * 5)
		mu.Unlock()
		get(t, srv.URL, 1)
	}
	if !n.Contains(1) {
		t.Skip("object not placed at this node under current decision — nothing to drain")
	}

	dresp, err := http.Post(srv.URL+"/cascade/admin/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body) //nolint:errcheck
	dresp.Body.Close()

	if !n.SpillContains(1) {
		t.Fatal("drain did not spill the payload to disk")
	}

	// Re-admit: the next request promotes the disk copy — no origin fetch.
	aresp, err := http.Post(srv.URL+"/cascade/admin/admit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, aresp.Body) //nolint:errcheck
	aresp.Body.Close()

	before := co.plain.Load()
	resp, body := get(t, srv.URL, 1)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, store.SyntheticBody(1, 400)) {
		t.Fatalf("post-admit fetch wrong (status %d)", resp.StatusCode)
	}
	if co.plain.Load() != before {
		t.Fatal("post-admit fetch reached the origin despite the disk copy")
	}
	if got := resp.Header.Get(HeaderHit); got != "1" {
		t.Fatalf("post-admit fetch served by %q", got)
	}
}

// readFromSpy is an http.ResponseWriter-shaped sink that, like
// *http.response, also implements io.ReaderFrom — and records when that
// path is taken.
type readFromSpy struct {
	written   int64
	readFroms int
}

func (s *readFromSpy) Write(p []byte) (int, error) {
	s.written += int64(len(p))
	return len(p), nil
}

func (s *readFromSpy) ReadFrom(r io.Reader) (int64, error) {
	s.readFroms++
	return io.Copy(struct{ io.Writer }{s}, r)
}

// fixedReader yields left bytes and then io.EOF; it has no WriteTo, like a
// network response body.
type fixedReader struct{ left int }

func (r *fixedReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if n > r.left {
		n = r.left
	}
	r.left -= n
	return n, nil
}

// TestCopyStreamUsesPooledBuffer pins the relay copy to the pooled buffer:
// io.CopyBuffer prefers dst.ReadFrom when dst has one, and the live dst
// (*http.response) does, which left the pool unused and allocated 32 KiB
// per relayed body.
func TestCopyStreamUsesPooledBuffer(t *testing.T) {
	const size = 100 * 1024
	dst, src := &readFromSpy{}, &fixedReader{left: size}
	n, err := copyStream(dst, src)
	if err != nil || n != size || dst.written != size {
		t.Fatalf("copyStream = %d, %v; sink saw %d bytes, want %d", n, err, dst.written, size)
	}
	if dst.readFroms != 0 {
		t.Fatalf("copyStream handed the copy to dst.ReadFrom %d times; the pooled buffer went unused", dst.readFroms)
	}
	allocs := testing.AllocsPerRun(200, func() {
		src.left = size
		copyStream(dst, src) //nolint:errcheck
	})
	if allocs != 0 {
		t.Fatalf("warm copyStream allocates %v times per body, want 0", allocs)
	}
}

func TestReadBodyKnownLength(t *testing.T) {
	const limit = 1 << 20
	resp := func(declared int64, body string) *http.Response {
		return &http.Response{ContentLength: declared, Body: io.NopCloser(strings.NewReader(body))}
	}
	// A declared length within the budget is read into exactly that much.
	got, err := readBody(resp(5, "hello"), limit)
	if err != nil || string(got) != "hello" || cap(got) != 5 {
		t.Fatalf("exact read = %q (cap %d), %v", got, cap(got), err)
	}
	// A body that ends early is an error, never a short success.
	if _, err := readBody(resp(10, "abc"), limit); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Unknown and over-budget lengths fall back to reading what arrives.
	for _, declared := range []int64{-1, limit + 1, 1 << 40} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBody(resp(declared, "abc"), limit)
		runtime.ReadMemStats(&after)
		if err != nil || string(got) != "abc" {
			t.Fatalf("declared %d: read %q, %v", declared, got, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("declared %d: allocated %d bytes for a 3-byte body", declared, grew)
		}
	}
}

// stubUpstream answers a node's upstream requests in-process, so a test can
// play a peer that lies about lengths — something net/http's own server
// will not do.
type stubUpstream func(*http.Request) *http.Response

func (f stubUpstream) RoundTrip(r *http.Request) (*http.Response, error) { return f(r), nil }

// TestHostilePeerLengthsBoundAllocation: Content-Length and the segmented
// marker are a peer's numbers. Neither may size an allocation beyond the
// node's byte budget, and the request must still get a defined answer.
func TestHostilePeerLengthsBoundAllocation(t *testing.T) {
	const capacity = 1 << 20
	const huge = int64(1) << 40
	reply := func(declared int64, body string, hdr map[string]string) *http.Response {
		h := http.Header{}
		h.Set(HeaderHit, "origin")
		h.Set(HeaderDecision, "0")
		for k, v := range hdr {
			h.Set(k, v)
		}
		return &http.Response{StatusCode: http.StatusOK, Header: h, ContentLength: declared,
			Body: io.NopCloser(strings.NewReader(body))}
	}
	cases := []struct {
		name     string
		upstream stubUpstream
		status   int
		body     string
	}{
		{
			// Chosen as a caching point, body length declared as 1 TiB.
			name: "content-length",
			upstream: func(*http.Request) *http.Response {
				return reply(huge, "abc", map[string]string{HeaderDecision: "0;1=0"})
			},
			status: http.StatusOK, body: "abc",
		},
		{
			// One 1 TiB segment announced; the segment fetch returns 3 bytes.
			name: "segmented-marker",
			upstream: func(r *http.Request) *http.Response {
				if r.Header.Get(HeaderSegment) == "" {
					return reply(0, "", map[string]string{HeaderSegmented: "1099511627776;1099511627776"})
				}
				resp := reply(3, "abc", nil)
				resp.StatusCode = http.StatusPartialContent
				return resp
			},
			status: http.StatusBadGateway,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode(1, "http://upstream.invalid", 2.0, capacity, 100, func() float64 { return 0 })
			n.Client = &http.Client{Transport: tc.upstream}
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
			runtime.ReadMemStats(&after)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.status, rec.Body.String())
			}
			if tc.body != "" && rec.Body.String() != tc.body {
				t.Fatalf("body %q, want %q", rec.Body.String(), tc.body)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > capacity {
				t.Fatalf("a peer-declared length of %d made the node allocate %d bytes (budget %d)", huge, grew, capacity)
			}
		})
	}
}
