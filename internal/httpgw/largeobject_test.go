package httpgw

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"

	"cascade/internal/model"
	"cascade/internal/store"
)

// The large-object body path: write-through reassembly at the client-facing
// node, the origin's validator memo and its ranged Dir-mode reads — outcome
// tables, the machine-independent allocation ceilings, and the three layer
// benchmarks docs/PERFORMANCE.md quotes.

const (
	seg256K = 256 << 10
	obj1M   = 1 << 20
)

// discardWriter is a client that reads everything and keeps nothing —
// unless keep is set, which collects what it accepted; after budget bytes
// (when positive) it hangs up.
type discardWriter struct {
	header http.Header
	status int
	n      int64
	budget int64
	keep   *bytes.Buffer
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	var err error
	if d.budget > 0 && d.n+int64(len(p)) > d.budget {
		p, err = p[:d.budget-d.n], errors.New("client went away")
	}
	d.n += int64(len(p))
	if d.keep != nil {
		d.keep.Write(p)
	}
	return len(p), err
}

func (d *discardWriter) reset() {
	clear(d.header)
	d.status, d.n = 0, 0
	if d.keep != nil {
		d.keep.Reset()
	}
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: make(http.Header)} }

func underRace() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// allocatedBy reports the heap bytes f allocates (the package's tests do
// not run in parallel, so TotalAlloc growth is f's own).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func segmentRequest(path string, idx int, segSize, total int64) *http.Request {
	seg := segInfo{on: true, idx: idx, size: segSize}
	hi := min(seg.lo()+segSize, total) - 1
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.Header.Set(HeaderSegment, seg.header())
	r.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", seg.lo(), hi))
	return r
}

// upstreamReply builds a protocol response the way an upstream hop would,
// with lengths the caller controls.
func upstreamReply(status int, declared int64, body []byte, hdr ...string) *http.Response {
	h := http.Header{}
	h.Set(HeaderHit, "origin")
	h.Set(HeaderDecision, "0")
	for i := 0; i+1 < len(hdr); i += 2 {
		h.Set(hdr[i], hdr[i+1])
	}
	return &http.Response{StatusCode: status, Header: h, ContentLength: declared, Body: io.NopCloser(bytes.NewReader(body))}
}

// TestReassemblyOutcomes drives serveSegmented over a stub upstream that
// answers the marker and then each segment as the row dictates.
func TestReassemblyOutcomes(t *testing.T) {
	const total, segSize = 3500, 1000 // segments of 1000, 1000, 1000, 500
	want := store.SyntheticBody(7, total)
	marker := formatSegmentedMarker(total, segSize)
	good := func(b []byte) (int, int64, []byte) { return http.StatusPartialContent, int64(len(b)), b }

	cases := []struct {
		name string
		// bad replaces segment badIdx's reply (status, declared length, body).
		badIdx int
		bad    func(good []byte) (int, int64, []byte)
		place  bool  // the upstream tells the node to cache each segment
		budget int64 // the client hangs up after this many bytes (0: never)

		status  int
		length  string // Content-Length the client sees
		payload int    // the client receives exactly want[:payload]
		lastSeg int    // highest segment index the node may request
	}{
		{name: "all good", badIdx: -1, status: 200, length: "3500", payload: total, lastSeg: 3},
		{name: "all good, placed", badIdx: -1, place: true, status: 200, length: "3500", payload: total, lastSeg: 3},
		{name: "segment 0 fails", badIdx: 0,
			bad:    func([]byte) (int, int64, []byte) { return 500, 4, []byte("boom") },
			status: 502, payload: 0, lastSeg: 0},
		{name: "segment 0 declares another length", badIdx: 0,
			bad:    func(b []byte) (int, int64, []byte) { return 206, 999, b[:999] },
			status: 502, payload: 0, lastSeg: 0},
		{name: "segment 2 fails", badIdx: 2,
			bad:    func([]byte) (int, int64, []byte) { return 500, 4, []byte("boom") },
			status: 200, length: "3500", payload: 2000, lastSeg: 2},
		{name: "segment 2 short", badIdx: 2,
			bad:    func(b []byte) (int, int64, []byte) { return 206, 1000, b[:400] },
			status: 200, length: "3500", payload: 2400, lastSeg: 2},
		{name: "segment 2 short, placed", badIdx: 2, place: true,
			bad:    func(b []byte) (int, int64, []byte) { return 206, 1000, b[:400] },
			status: 200, length: "3500", payload: 2000, lastSeg: 2},
		{name: "segment 2 longer than declared", badIdx: 2,
			bad: func(b []byte) (int, int64, []byte) {
				return 206, 1000, append(append([]byte(nil), b...), "EXCESS-BYTES"...)
			},
			status: 200, length: "3500", payload: 3000, lastSeg: 2},
		{name: "client stops reading", badIdx: -1, budget: 1500,
			status: 200, length: "3500", payload: 1500, lastSeg: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			highest := -1
			upstream := stubUpstream(func(r *http.Request) *http.Response {
				seg, err := parseSegmentRequest(r.Header)
				if err != nil {
					t.Errorf("node sent a bad segment header: %v", err)
				}
				if !seg.on {
					return upstreamReply(http.StatusOK, 0, nil, HeaderSegmented, marker)
				}
				mu.Lock()
				highest = max(highest, seg.idx)
				mu.Unlock()
				status, declared, body := good(want[seg.lo():min(seg.lo()+segSize, total)])
				if seg.idx == tc.badIdx {
					status, declared, body = tc.bad(body)
				}
				if tc.place {
					return upstreamReply(status, declared, body, HeaderDecision, "0;1=0")
				}
				return upstreamReply(status, declared, body)
			})
			n := NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
			n.Client = &http.Client{Transport: upstream}

			var body bytes.Buffer
			client := &discardWriter{header: make(http.Header), budget: tc.budget, keep: &body}
			n.ServeHTTP(client, httptest.NewRequest(http.MethodGet, "/objects/7", nil))

			if client.status != tc.status {
				t.Fatalf("status %d, want %d", client.status, tc.status)
			}
			if got := client.header.Get("Content-Length"); got != tc.length && tc.status == http.StatusOK {
				t.Fatalf("Content-Length %q, want %q", got, tc.length)
			}
			if tc.status == http.StatusOK {
				if got := client.header.Get(HeaderSegmented); got != marker {
					t.Fatalf("marker %q, want %q", got, marker)
				}
				if !bytes.Equal(body.Bytes(), want[:tc.payload]) {
					t.Fatalf("client received %d bytes that are not object bytes [0, %d)", body.Len(), tc.payload)
				}
			} else {
				// An error answer: no marker, no claim to the object's
				// length, and not one byte of payload.
				if client.header.Get(HeaderSegmented) != "" || client.header.Get("Content-Length") == strconv.Itoa(total) {
					t.Fatalf("error response still framed as the object: %v", client.header)
				}
				if bytes.Contains(body.Bytes(), want[:16]) || bytes.Contains(body.Bytes(), []byte("boom")) {
					t.Fatalf("error response leaked upstream bytes: %q", body.Bytes())
				}
			}
			if highest > tc.lastSeg {
				t.Fatalf("node went on to request segment %d after the response ended at segment %d", highest, tc.lastSeg)
			}
		})
	}
}

// cachedLargeObject returns a node holding every 256 KiB segment of the
// 1 MiB object /objects/7 in memory, behind a stub upstream that answers
// only the bodiless marker once the segments are in.
func cachedLargeObject(tb testing.TB) *Node {
	tb.Helper()
	marker := formatSegmentedMarker(obj1M, seg256K)
	n := NewNode(1, "http://upstream.invalid", 2.0, 8<<20, 100, func() float64 { return 0 })
	n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
		seg, _ := parseSegmentRequest(r.Header)
		if !seg.on {
			return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody,
				Header: http.Header{HeaderSegmented: {marker}, HeaderHit: {"origin"}}}
		}
		body := store.SyntheticRange(7, obj1M, int(seg.lo()), int(seg.lo())+seg256K)
		return upstreamReply(http.StatusPartialContent, int64(len(body)), body, HeaderDecision, "0;1=0", "ETag", etagOf(body))
	})}
	w := newDiscardWriter()
	n.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
	if w.status != http.StatusOK || w.n != obj1M {
		tb.Fatalf("warm-up GET: status %d, %d bytes", w.status, w.n)
	}
	for idx := 0; idx < obj1M/seg256K; idx++ {
		if !n.Contains(store.SegmentID(7, idx)) {
			tb.Fatalf("segment %d not cached after the warm-up GET", idx)
		}
	}
	return n
}

func BenchmarkReassembleCached1M(b *testing.B) {
	n := cachedLargeObject(b)
	w := newDiscardWriter()
	r := httptest.NewRequest(http.MethodGet, "/objects/7", nil)
	b.SetBytes(obj1M)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		n.ServeHTTP(w, r)
		if w.n != obj1M {
			b.Fatalf("served %d bytes", w.n)
		}
	}
}

// TestReassemblyAllocs is the machine-independent ceiling on the
// client-facing node's reassembly: serving four cached segments hands the
// store's slices to the client, so a GET allocates request bookkeeping and
// nothing proportional to the payload.
func TestReassemblyAllocs(t *testing.T) {
	if underRace() {
		t.Skip("allocation counts are not meaningful under -race; `make allocs` runs this without it")
	}
	res := testing.Benchmark(BenchmarkReassembleCached1M)
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("a cached 1 MiB GET allocates %d bytes over %d ops; want < 64 KiB", got, res.N)
	}
}

// BenchmarkFrontNodeHit is the gateway's cheapest request: a 4 KiB object
// resident at the client-facing node, so the handler, one engine lookup and
// an empty placement decision are all that run.
func BenchmarkFrontNodeHit(b *testing.B) {
	const size = 4 << 10
	body := store.SyntheticBody(7, size)
	n := NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
	n.Client = &http.Client{Transport: stubUpstream(func(*http.Request) *http.Response {
		return upstreamReply(http.StatusOK, size, body, HeaderDecision, "0;1=0", "ETag", etagOf(body))
	})}
	w := newDiscardWriter()
	r := httptest.NewRequest(http.MethodGet, "/objects/7", nil)
	n.ServeHTTP(w, r)
	if w.status != http.StatusOK || !n.Contains(7) {
		b.Fatalf("warm-up GET: status %d, cached %v", w.status, n.Contains(7))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		n.ServeHTTP(w, r)
		if w.n != size || w.header.Get(HeaderHit) != "1" {
			b.Fatalf("served %d bytes, hit %q", w.n, w.header.Get(HeaderHit))
		}
	}
}

// TestFrontNodeHitAllocs is the ceiling on a front-node hit: the response's
// header values and nothing else. The decision it carries chooses nobody, so
// the decision step must not allocate — it used to build a ledger, a mutex
// and a map, per hit, only to read an empty list back out of it (220 B in 11
// allocations a hit then, 108 B in 7 now).
func TestFrontNodeHitAllocs(t *testing.T) {
	if underRace() {
		t.Skip("allocation counts are not meaningful under -race; `make allocs` runs this without it")
	}
	res := testing.Benchmark(BenchmarkFrontNodeHit)
	if bytes, allocs := res.AllocedBytesPerOp(), res.AllocsPerOp(); bytes > 160 || allocs > 8 {
		t.Fatalf("a front-node hit allocates %d bytes in %d allocations over %d ops; want ≤ 160 B in ≤ 8", bytes, allocs, res.N)
	}
}

func largeOrigin() *Origin {
	return &Origin{Size: func(model.ObjectID) int { return obj1M }, SegmentThreshold: seg256K, SegmentSize: seg256K}
}

func BenchmarkOriginSegment256K(b *testing.B) {
	o := largeOrigin()
	w := newDiscardWriter()
	r := segmentRequest("/objects/7", 1, seg256K, obj1M)
	b.SetBytes(seg256K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		o.ServeHTTP(w, r)
		if w.n != seg256K {
			b.Fatalf("served %d bytes", w.n)
		}
	}
}

// originSegment asks the origin for one segment and returns the recorder.
func originSegment(t *testing.T, o *Origin, obj, idx int, inm string) *httptest.ResponseRecorder {
	t.Helper()
	r := segmentRequest("/objects/"+strconv.Itoa(obj), idx, seg256K, obj1M)
	if inm != "" {
		r.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, r)
	return rec
}

func memoLen(o *Origin) int {
	o.etagMu.Lock()
	defer o.etagMu.Unlock()
	return len(o.etags)
}

func TestOriginETagMemo(t *testing.T) {
	o := largeOrigin()
	// First and repeated requests carry the validator of the bytes served.
	for round := 0; round < 3; round++ {
		rec := originSegment(t, o, 7, 1, "")
		want := store.SyntheticRange(7, obj1M, seg256K, 2*seg256K)
		if rec.Code != http.StatusPartialContent || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("round %d: status %d, %d bytes", round, rec.Code, rec.Body.Len())
		}
		if got := rec.Header().Get("ETag"); got != etagOf(want) {
			t.Fatalf("round %d: ETag %s, want %s", round, got, etagOf(want))
		}
		if got := memoLen(o); got != 1 {
			t.Fatalf("round %d: memo holds %d entries, want 1", round, got)
		}
	}
	// Another range of the object and the same range of another object are
	// their own entries with their own tags.
	other := originSegment(t, o, 7, 2, "")
	twin := originSegment(t, o, 8, 1, "")
	if got := memoLen(o); got != 3 {
		t.Fatalf("memo holds %d entries, want 3", got)
	}
	for _, rec := range []*httptest.ResponseRecorder{other, twin} {
		if got := rec.Header().Get("ETag"); got != etagOf(rec.Body.Bytes()) {
			t.Fatalf("ETag %s is not the validator of the bytes served (%s)", got, etagOf(rec.Body.Bytes()))
		}
	}
	if other.Header().Get("ETag") == twin.Header().Get("ETag") {
		t.Fatal("distinct payloads share a validator")
	}

	// A matching conditional GET is a 304; a stale validator gets the bytes.
	tag := twin.Header().Get("ETag")
	if rec := originSegment(t, o, 8, 1, tag); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("ETag") != tag {
		t.Fatalf("matching If-None-Match: status %d, %d bytes, ETag %s", rec.Code, rec.Body.Len(), rec.Header().Get("ETag"))
	}
	if rec := originSegment(t, o, 8, 1, `"feedface"`); rec.Code != http.StatusPartialContent || !bytes.Equal(rec.Body.Bytes(), twin.Body.Bytes()) {
		t.Fatalf("stale If-None-Match: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
}

func TestOriginETagMemoSkipsSmallBodies(t *testing.T) {
	for _, size := range []int{0, 1, 4096, etagMemoMinBytes - 1} {
		o := &Origin{Size: func(model.ObjectID) int { return size }}
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/3", nil))
		if rec.Code != http.StatusOK || rec.Body.Len() != size || rec.Header().Get("ETag") != etagOf(rec.Body.Bytes()) {
			t.Fatalf("size %d: status %d, %d bytes, ETag %s", size, rec.Code, rec.Body.Len(), rec.Header().Get("ETag"))
		}
		if o.etags != nil {
			t.Fatalf("size %d: a body under %d bytes was memoised", size, etagMemoMinBytes)
		}
	}
	// The threshold itself is memoised, whole objects included.
	o := &Origin{Size: func(model.ObjectID) int { return etagMemoMinBytes }}
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/3", nil))
	if memoLen(o) != 1 || rec.Header().Get("ETag") != etagOf(rec.Body.Bytes()) {
		t.Fatalf("threshold body: memo %d entries, ETag %s", memoLen(o), rec.Header().Get("ETag"))
	}
}

func TestOriginETagMemoBounded(t *testing.T) {
	o := largeOrigin()
	first := originSegment(t, o, 1, 0, "")
	// Fill to the cap with keys no request below asks for.
	for i := 0; memoLen(o) < etagMemoMaxEntries; i++ {
		o.etags[etagKey{obj: model.ObjectID(1_000_000 + i), size: obj1M, lo: 0, hi: seg256K - 1}] = `"filler"`
	}
	for obj := 1; obj <= 6; obj++ {
		for round := 0; round < 2; round++ {
			rec := originSegment(t, o, obj, 0, "")
			if got := rec.Header().Get("ETag"); got != etagOf(rec.Body.Bytes()) {
				t.Fatalf("object %d round %d: ETag %s is not the validator of the bytes served", obj, round, got)
			}
			if got := memoLen(o); got > etagMemoMaxEntries {
				t.Fatalf("memo grew to %d entries, cap %d", got, etagMemoMaxEntries)
			}
		}
	}
	if got := memoLen(o); got != 5 {
		t.Fatalf("memo holds %d entries after the full one was dropped, want the 5 inserted since", got)
	}
	if rec := originSegment(t, o, 1, 0, ""); rec.Header().Get("ETag") != first.Header().Get("ETag") {
		t.Fatal("validator changed across a memo drop")
	}
}

// TestOriginRevalidationSkipsGeneration: a conditional GET that matches a
// remembered validator is answered without generating the 256 KiB body.
func TestOriginRevalidationSkipsGeneration(t *testing.T) {
	o := largeOrigin()
	tag := originSegment(t, o, 7, 1, "").Header().Get("ETag")
	r := segmentRequest("/objects/7", 1, seg256K, obj1M)
	r.Header.Set("If-None-Match", tag)
	w := newDiscardWriter()
	grew := allocatedBy(func() { o.ServeHTTP(w, r) })
	if w.status != http.StatusNotModified || w.n != 0 {
		t.Fatalf("status %d, %d bytes", w.status, w.n)
	}
	if grew >= 4<<10 {
		t.Fatalf("a memoised 256 KiB revalidation allocated %d bytes; want < 4 KiB", grew)
	}
}

func TestOriginETagMemoConcurrentFirstRequests(t *testing.T) {
	o := largeOrigin()
	want := etagOf(store.SyntheticRange(7, obj1M, 0, seg256K))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := segmentRequest("/objects/7", 0, seg256K, obj1M)
			rec := httptest.NewRecorder()
			o.ServeHTTP(rec, r)
			if got := rec.Header().Get("ETag"); got != want {
				t.Errorf("ETag %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
	if got := memoLen(o); got != 1 {
		t.Fatalf("memo holds %d entries, want 1", got)
	}
}

// TestDirOriginRangedReads: a Dir-mode origin serves a large file in
// segments by reading each segment's range, not the file, per request.
func TestDirOriginRangedReads(t *testing.T) {
	const fileSize = 8 << 20
	dir := t.TempDir()
	want := store.SyntheticBody(1, fileSize)
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	o := &Origin{Dir: dir, SegmentThreshold: seg256K, SegmentSize: seg256K}
	origin := httptest.NewServer(o)
	t.Cleanup(origin.Close)
	srv := httptest.NewServer(NewNode(0, origin.URL, 1, 1<<20, 100, func() float64 { return 1 }))
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("reassembled file: status %d, %d bytes, err %v", resp.StatusCode, len(body), err)
	}

	// One segment request costs one segment, not one file.
	r := segmentRequest("/big.bin", 5, seg256K, fileSize)
	w := &discardWriter{header: make(http.Header), keep: new(bytes.Buffer)}
	w.keep.Grow(seg256K)
	grew := allocatedBy(func() { o.ServeHTTP(w, r) })
	if w.status != http.StatusPartialContent || !bytes.Equal(w.keep.Bytes(), want[5*seg256K:6*seg256K]) {
		t.Fatalf("segment 5: status %d, %d bytes", w.status, w.keep.Len())
	}
	if got := w.header.Get("ETag"); got != etagOf(w.keep.Bytes()) {
		t.Fatalf("segment ETag %s is not the validator of its bytes", got)
	}
	if grew >= 1<<20 {
		t.Fatalf("one segment of an 8 MiB file allocated %d bytes; want < 1 MiB", grew)
	}
	if o.etags != nil {
		t.Fatal("Dir-mode validators were memoised; a file's bytes can change under its name")
	}

	// The marker reads nothing; a bare Range and a directory still answer.
	w.reset()
	if grew := allocatedBy(func() { o.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/big.bin", nil)) }); grew >= 64<<10 || w.n != 0 || w.header.Get(HeaderSegmented) == "" {
		t.Fatalf("marker response: %d bytes allocated, %d body bytes, marker %q", grew, w.n, w.header.Get(HeaderSegmented))
	}
	rec := httptest.NewRecorder()
	rr := httptest.NewRequest(http.MethodGet, "/big.bin", nil)
	rr.Header.Set("Range", "bytes=1000-1999")
	o.ServeHTTP(rec, rr)
	if rec.Code != http.StatusPartialContent || !bytes.Equal(rec.Body.Bytes(), want[1000:2000]) {
		t.Fatalf("bare Range: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	rec = httptest.NewRecorder()
	o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sub", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("a directory answered %d, want 404", rec.Code)
	}
}

// TestDirOriginStreams: a Dir-mode origin serves a 64 MiB file whole from
// its one open descriptor — the validator hashed from it, then the bytes
// sent from it — without copying the file into memory, whether net/http or
// the node's loop serves the connection.
func TestDirOriginStreams(t *testing.T) {
	const size = 64 << 20
	dir := t.TempDir()
	want := store.SyntheticBody(3, size)
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	tag := etagOf(want)
	want = nil // the file is on disk; the GETs need no copy in the heap
	for _, tc := range []struct {
		conn  string
		serve func(*Origin) http.Handler
		loops string
	}{
		{"http", func(o *Origin) http.Handler { return http.HandlerFunc(o.ServeHTTP) }, "0"},
		{"loop", func(o *Origin) http.Handler { return o }, "2"},
	} {
		o := &Origin{Dir: dir}
		srv := httptest.NewServer(tc.serve(o))
		client := &http.Client{Transport: &http.Transport{}}
		for i := 0; i < 2; i++ {
			var resp *http.Response
			var n int64
			var err error
			h := fnv.New64a()
			grew := allocatedBy(func() {
				if resp, err = client.Get(srv.URL + "/big.bin"); err == nil {
					n, err = io.Copy(h, resp.Body)
					resp.Body.Close()
				}
			})
			if err != nil || resp.StatusCode != http.StatusOK || n != size || etagSum(h) != tag || resp.Header.Get("ETag") != tag {
				t.Fatalf("%s GET %d: %v, %d bytes, err %v; want the whole file under its validator", tc.conn, i, resp, n, err)
			}
			if grew >= 8<<20 {
				t.Errorf("%s GET %d of a 64 MiB file allocated %d bytes; want < 8 MiB", tc.conn, i, grew)
			}
		}
		if got := scrapeCounter(t, o, `cascade_gw_served_total{conn="loop",node="origin"}`); got != tc.loops {
			t.Errorf("%s: the loop served %s GETs, want %s", tc.conn, got, tc.loops)
		}
		client.CloseIdleConnections()
		srv.Close()
	}
}
