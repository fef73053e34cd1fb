package httpgw

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// A segmented object is one object: one purge of the base reaches every
// segment, a reassembled body is one generation's bytes or short, and the
// client-facing node remembers the marker only as long as its generation
// holds. The tables below play an origin whose bytes differ per generation,
// so a splice shows as a body that is no generation's prefix.

const (
	genTotal   = 3500 // segments of 1000, 1000, 1000, 500
	genSegSize = 1000
	genObj     = 7
)

// genBytes is generation gen's payload of the test object.
func genBytes(gen uint64) []byte { return store.SyntheticBody(model.ObjectID(1000+gen), genTotal) }

// genUpstream plays the origin of one large object that is rewritten whole
// with every write: the marker and every segment answer at the current
// generation, with that generation's bytes. Any other object is a small
// body that carries the invalidation tail, if one is set.
type genUpstream struct {
	mu        sync.Mutex
	gen       uint64
	place     func(idx int) string // X-Cascade-Decision for segment idx's reply
	onSegment func(idx int)        // runs, locked, before segment idx is answered; may bump gen
	inval     string               // X-Cascade-Decision for small-object replies
	markers   int
	segments  int
}

func (u *genUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	seg, err := parseSegmentRequest(r.Header)
	if err != nil {
		return nil, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if r.URL.Path != "/objects/"+strconv.Itoa(genObj) {
		return upstreamReply(http.StatusOK, 100, store.SyntheticBody(99, 100), HeaderDecision, u.inval), nil
	}
	if !seg.on {
		u.markers++
		hdr := []string{HeaderSegmented, formatSegmentedMarker(genTotal, genSegSize)}
		if u.gen != 0 {
			hdr = append(hdr, HeaderGen, strconv.FormatUint(u.gen, 10))
		}
		return upstreamReply(http.StatusOK, 0, nil, hdr...), nil
	}
	u.segments++
	if u.onSegment != nil {
		u.onSegment(seg.idx)
	}
	body := genBytes(u.gen)[seg.lo():min(seg.lo()+genSegSize, genTotal)]
	hdr := []string{"ETag", etagOf(body)}
	if u.gen != 0 {
		hdr = append(hdr, HeaderGen, strconv.FormatUint(u.gen, 10))
	}
	if u.place != nil {
		hdr = append(hdr, HeaderDecision, u.place(seg.idx))
	}
	return upstreamReply(http.StatusPartialContent, int64(len(body)), body, hdr...), nil
}

func (u *genUpstream) counts() (markers, segments int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.markers, u.segments
}

func (u *genUpstream) bump() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.gen++
	return u.gen
}

// genChain is levels nodes in front of a genUpstream (node levels-1 talks to
// the stub in-process, the others to the node above over loopback), all in
// one coherency mode, on one settable clock. The edge's TTL is 100 s.
type genChain struct {
	t      *testing.T
	up     *genUpstream
	mode   coherency.Mode
	nodes  []*Node
	setNow func(float64)
	now    float64
	floor  uint64 // the client's CAS floor: the highest write it saw complete
}

func newGenChain(t *testing.T, mode coherency.Mode, levels int) *genChain {
	t.Helper()
	clock, setNow := testClock()
	c := &genChain{t: t, up: &genUpstream{gen: 1}, mode: mode, setNow: setNow}
	upstream := "http://upstream.invalid"
	c.nodes = make([]*Node, levels)
	for i := levels - 1; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, float64(i+1), 1<<20, 100, clock)
		n.EnableCoherency(mode)
		if i == levels-1 {
			n.Client = &http.Client{Transport: c.up}
		}
		if i == 0 {
			n.TTL = 100
		}
		c.nodes[i] = n
		if i > 0 {
			srv := httptest.NewServer(n)
			t.Cleanup(srv.Close)
			upstream = srv.URL
		}
	}
	return c
}

// get issues one client GET at node and returns what the client saw.
func (c *genChain) get(node *Node, obj int) *httptest.ResponseRecorder {
	c.now++
	c.setNow(c.now)
	r := httptest.NewRequest(http.MethodGet, "/objects/"+strconv.Itoa(obj), nil)
	if c.mode == coherency.ModeCAS && c.floor > 0 && obj == genObj {
		r.Header.Set(HeaderGen, strconv.FormatUint(c.floor, 10))
	}
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, r)
	return rec
}

// write rewrites the object at the origin and lets the chain learn of it the
// way its mode does: CAS — the client carries the completed write's
// generation as its read floor; PSI — the next origin-served response
// piggybacks the invalidation; TTL — nothing is told, the edge's freshness
// budget runs out.
func (c *genChain) write() uint64 {
	gen := c.up.bump()
	switch c.mode {
	case coherency.ModeCAS:
		c.floor = gen
	case coherency.ModePSI:
		c.up.mu.Lock()
		c.up.inval = fmt.Sprintf("0;;%d|%d:%d:%d", gen, gen, genObj, gen)
		c.up.mu.Unlock()
		c.get(c.nodes[0], 99)
	case coherency.ModeTTL:
		c.now += 1000
	}
	return gen
}

// reassemblies reads one cascade_gw_reassembly_total series of n.
func reassemblies(t *testing.T, n *Node, outcome string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "cascade_gw_reassembly_total{") && strings.Contains(line, `outcome="`+outcome+`"`) {
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("bad sample %q", line)
			}
			return v
		}
	}
	t.Fatalf("cascade_gw_reassembly_total{outcome=%q} not in scrape", outcome)
	return 0
}

// oneGeneration fails unless body is the first payload bytes of generation
// gen and of nothing else: the never-spliced check every row ends with.
func oneGeneration(t *testing.T, body []byte, gen uint64, payload int) {
	t.Helper()
	if len(body) != payload || !bytes.Equal(body, genBytes(gen)[:payload]) {
		for g := uint64(0); g < 8; g++ {
			if len(body) <= genTotal && bytes.Equal(body, genBytes(g)[:len(body)]) {
				t.Fatalf("client received %d bytes of generation %d, want %d bytes of generation %d", len(body), g, payload, gen)
			}
		}
		t.Fatalf("client received %d bytes that are no single generation's: a spliced body", len(body))
	}
}

var validatingAndNot = []coherency.Mode{coherency.ModeCAS, coherency.ModePSI, coherency.ModeTTL}

// TestReassemblyGenerations: writes that race a reassembly, or land on a
// cached object, in every coherency mode.
func TestReassemblyGenerations(t *testing.T) {
	everywhere := func(int) string { return "0;0=0" }
	rows := []struct {
		name string
		run  func(t *testing.T, c *genChain)
	}{
		{"write between segment 1 and 2", func(t *testing.T, c *genChain) {
			c.up.onSegment = func(idx int) {
				if idx == 2 && c.up.gen == 1 {
					c.up.gen = 2
				}
			}
			rec := c.get(c.nodes[0], genObj)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(genTotal) {
				t.Fatalf("status %d, Content-Length %q", rec.Code, rec.Header().Get("Content-Length"))
			}
			// Two segments of generation 1 were out; the third answered at
			// generation 2 and must end the response short, not extend it.
			oneGeneration(t, rec.Body.Bytes(), 1, 2000)
			if got := reassemblies(t, c.nodes[0], "truncated"); got != 1 {
				t.Fatalf("truncated = %d, want 1", got)
			}
			// The overtaken marker is forgotten: the next GET asks again and
			// gets generation 2 whole.
			markers, _ := c.up.counts()
			rec = c.get(c.nodes[0], genObj)
			oneGeneration(t, rec.Body.Bytes(), 2, genTotal)
			if after, _ := c.up.counts(); after != markers+1 {
				t.Fatalf("%d marker fetches after a truncation, want 1", after-markers)
			}
		}},
		{"write before the first payload byte", func(t *testing.T, c *genChain) {
			c.up.onSegment = func(idx int) {
				if idx == 0 && c.up.gen == 1 {
					c.up.gen = 2
				}
			}
			rec := c.get(c.nodes[0], genObj)
			if rec.Code != http.StatusOK || rec.Header().Get(HeaderGen) != "2" {
				t.Fatalf("status %d at generation %q, want 200 at 2", rec.Code, rec.Header().Get(HeaderGen))
			}
			oneGeneration(t, rec.Body.Bytes(), 2, genTotal)
			if r, ok := reassemblies(t, c.nodes[0], "restarted"), reassemblies(t, c.nodes[0], "ok"); r != 1 || ok != 1 {
				t.Fatalf("restarted = %d, ok = %d, want 1 and 1", r, ok)
			}
			if markers, _ := c.up.counts(); markers != 2 {
				t.Fatalf("%d marker fetches, want 2 (the overtaken one and its successor)", markers)
			}
		}},
		{"every marker overtaken: retries exhausted", func(t *testing.T, c *genChain) {
			c.up.onSegment = func(idx int) {
				if idx == 0 {
					c.up.gen++
				}
			}
			rec := c.get(c.nodes[0], genObj)
			if rec.Code != http.StatusBadGateway || rec.Header().Get(HeaderSegmented) != "" {
				t.Fatalf("status %d, marker %q; want a plain 502", rec.Code, rec.Header().Get(HeaderSegmented))
			}
			for g := uint64(1); g < 8; g++ {
				if bytes.Contains(rec.Body.Bytes(), genBytes(g)[:16]) {
					t.Fatalf("the 502 carries generation %d payload", g)
				}
			}
			if r, f := reassemblies(t, c.nodes[0], "restarted"), reassemblies(t, c.nodes[0], "refused"); r != maxReassemblyRestarts || f != 1 {
				t.Fatalf("restarted = %d, refused = %d, want %d and 1", r, f, maxReassemblyRestarts)
			}
			if markers, _ := c.up.counts(); markers != 1+maxReassemblyRestarts {
				t.Fatalf("%d marker fetches, want %d", markers, 1+maxReassemblyRestarts)
			}
		}},
		{"write after a fully cached object", func(t *testing.T, c *genChain) {
			c.up.place = everywhere
			for i := 0; i < 2; i++ {
				oneGeneration(t, c.get(c.nodes[0], genObj).Body.Bytes(), 1, genTotal)
			}
			_, cold := c.up.counts()
			oneGeneration(t, c.get(c.nodes[0], genObj).Body.Bytes(), 1, genTotal)
			if _, warm := c.up.counts(); warm != cold {
				t.Fatalf("object not fully cached before the write: %d segment fetches on a warm GET", warm-cold)
			}
			gen := c.write()
			rec := c.get(c.nodes[0], genObj)
			if rec.Code != http.StatusOK || rec.Header().Get(HeaderGen) != strconv.FormatUint(gen, 10) {
				t.Fatalf("status %d at generation %q, want 200 at %d", rec.Code, rec.Header().Get(HeaderGen), gen)
			}
			oneGeneration(t, rec.Body.Bytes(), gen, genTotal)
			// And the new generation is cached like the old one was.
			markers, segments := c.up.counts()
			oneGeneration(t, c.get(c.nodes[0], genObj).Body.Bytes(), gen, genTotal)
			if m, s := c.up.counts(); m != markers || s != segments {
				t.Fatalf("a warm GET after the write cost %d marker and %d segment fetches", m-markers, s-segments)
			}
		}},
	}
	for _, mode := range validatingAndNot {
		for _, row := range rows {
			t.Run(mode.String()+"/"+row.name, func(t *testing.T) {
				row.run(t, newGenChain(t, mode, 1))
			})
		}
		// A mid-chain hop still holds half of the previous generation and
		// nothing told it of the write; an edge that has never seen the
		// object asks for the current one. The hop's segments are at another
		// generation than the pin — a miss, in every mode.
		t.Run(mode.String()+"/pin mismatch at a mid-chain hit", func(t *testing.T) {
			c := newGenChain(t, mode, 2)
			c.up.place = func(idx int) string {
				if idx < 2 {
					return "0;1=0"
				}
				return "0"
			}
			oneGeneration(t, c.get(c.nodes[0], genObj).Body.Bytes(), 1, genTotal)
			for idx := 0; idx < 2; idx++ {
				if !c.nodes[1].Contains(store.SegmentID(genObj, idx)) {
					t.Fatalf("segment %d not cached at the mid-chain hop", idx)
				}
			}
			c.up.bump()
			clock, _ := testClock()
			fresh := NewNode(5, c.nodes[0].Upstream, 1, 1<<20, 100, clock)
			fresh.EnableCoherency(mode)
			rec := c.get(fresh, genObj)
			if rec.Code != http.StatusOK || rec.Header().Get(HeaderGen) != "2" {
				t.Fatalf("status %d at generation %q, want 200 at 2", rec.Code, rec.Header().Get(HeaderGen))
			}
			oneGeneration(t, rec.Body.Bytes(), 2, genTotal)
		})
	}
}

// TestOldPeerMarkerPinsGenerationZero: a marker without X-Cascade-Gen — an
// origin without an authority, or a peer from before the marker carried one
// — pins generation zero, and its unstamped segments satisfy the pin.
func TestOldPeerMarkerPinsGenerationZero(t *testing.T) {
	c := newGenChain(t, coherency.ModeCAS, 1)
	c.up.gen = 0
	rec := c.get(c.nodes[0], genObj)
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderGen) != "" {
		t.Fatalf("status %d, generation %q", rec.Code, rec.Header().Get(HeaderGen))
	}
	oneGeneration(t, rec.Body.Bytes(), 0, genTotal)
}

// largeChain is a 3-hop CAS chain in front of an origin that serves
// 10,000-byte objects in 4,096-byte segments, every hop's traffic counted
// (index 0 is the client-facing node, 3 the origin).
func largeChain(t *testing.T) (base string, nodes []*Node, o *Origin, hops [4]*countingOrigin, setNow func(float64)) {
	t.Helper()
	clock, setNow := testClock()
	o = &Origin{
		Size:             func(model.ObjectID) int { return 10000 },
		SegmentThreshold: 4096, SegmentSize: 4096,
		Authority: coherency.NewAuthority(),
	}
	hops[3] = &countingOrigin{o: o}
	srv := httptest.NewServer(hops[3])
	t.Cleanup(srv.Close)
	upstream := srv.URL
	nodes = make([]*Node, 3)
	for i := 2; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, float64(i+1), 1<<20, 100, clock)
		n.EnableCoherency(coherency.ModeCAS)
		hops[i] = &countingOrigin{o: n}
		srv := httptest.NewServer(hops[i])
		t.Cleanup(srv.Close)
		upstream = srv.URL
		nodes[i] = n
	}
	return upstream, nodes, o, hops, setNow
}

// TestMarkerMemo: the client-facing node remembers a large object's marker,
// so a warm GET makes no upstream request at any hop; an invalidation, a
// raised request floor and TTL expiry each cost exactly one marker walk.
func TestMarkerMemo(t *testing.T) {
	base, nodes, o, hops, setNow := largeChain(t)
	nodes[0].TTL = 500
	now := 0.0
	fetch := func(floor uint64, wantGen string) {
		t.Helper()
		now += 10
		setNow(now)
		req, err := http.NewRequest(http.MethodGet, base+"/objects/7", nil)
		if err != nil {
			t.Fatal(err)
		}
		if floor > 0 {
			req.Header.Set(HeaderGen, strconv.FormatUint(floor, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, store.SyntheticBody(7, 10000)) {
			t.Fatalf("GET: status %d, %d bytes, err %v", resp.StatusCode, len(body), err)
		}
		if got := resp.Header.Get(HeaderGen); got != wantGen {
			t.Fatalf("served at generation %q, want %q", got, wantGen)
		}
	}
	upstreamOf := func() (plain, segments int64) {
		for _, h := range hops[1:] {
			plain += h.plain.Load()
			segments += h.segments.Load()
		}
		return
	}
	// warm fetches until the edge serves every segment itself, then asserts
	// that one more GET costs nothing upstream of the edge.
	warm := func(floor uint64, gen string) {
		t.Helper()
		for i := 0; i < 6; i++ {
			_, before := upstreamOf()
			fetch(floor, gen)
			if _, after := upstreamOf(); after == before {
				break
			}
		}
		plain, segments := upstreamOf()
		fetch(floor, gen)
		if p, s := upstreamOf(); p != plain || s != segments {
			t.Fatalf("a warm GET made %d plain and %d segment requests upstream of the edge, want none", p-plain, s-segments)
		}
	}
	// refetches asserts the next GET walks all three upstream hops for the
	// marker once, and the one after it not at all.
	refetches := func(why string, floor uint64, gen string) {
		t.Helper()
		var before [4]int64
		for i, h := range hops {
			before[i] = h.plain.Load()
		}
		fetch(floor, gen)
		fetch(floor, gen)
		for i, h := range hops[1:] {
			if got := h.plain.Load() - before[i+1]; got != 1 {
				t.Fatalf("%s: hop %d saw %d marker walks over two GETs, want exactly 1", why, i+1, got)
			}
		}
	}

	warm(0, "")
	if got := reassemblies(t, nodes[0], "marker_hit"); got == 0 {
		t.Fatal("warm GETs counted no marker_hit")
	}

	// An invalidation through the chain raises floor(base) at every hop; the
	// remembered marker is below it.
	if gen := postInvalidate(t, base, 7); gen != 1 {
		t.Fatalf("write assigned generation %d", gen)
	}
	refetches("after an invalidation", 0, "1")
	warm(0, "1")

	// A write this chain never heard of, known only to the client.
	gen, _ := o.Authority.Bump(7)
	refetches("under a raised request floor", gen, "2")
	warm(gen, "2")

	// The freshness budget.
	now += 1000
	refetches("after TTL expiry", gen, "2")
}

// TestMarkerMemoBounded: a sweep over more large objects than the memo
// holds never grows it past its bound.
func TestMarkerMemoBounded(t *testing.T) {
	n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return 0 })
	n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
		if r.Header.Get(HeaderSegment) == "" {
			return upstreamReply(http.StatusOK, 0, nil, HeaderSegmented, "4;4")
		}
		return upstreamReply(http.StatusPartialContent, 4, []byte("abcd"))
	})}
	w := newDiscardWriter()
	for obj := 0; obj < markerMemoMaxEntries+50; obj++ {
		w.reset()
		n.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/objects/"+strconv.Itoa(obj), nil))
		if w.status != http.StatusOK || w.n != 4 {
			t.Fatalf("object %d: status %d, %d bytes", obj, w.status, w.n)
		}
		if got := len(n.markers); got > markerMemoMaxEntries {
			t.Fatalf("memo grew to %d entries, bound %d", got, markerMemoMaxEntries)
		}
	}
	if got := len(n.markers); got != 50 {
		t.Fatalf("memo holds %d entries after the full one was dropped, want the 50 remembered since", got)
	}
}

// TestDrainedEdgeReassembles: a drained client-facing node still owes the
// client a body. It used to relay the bodiless marker: 200, Content-Length
// 0, nothing.
func TestDrainedEdgeReassembles(t *testing.T) {
	base, nodes, _, hops, setNow := largeChain(t)
	setNow(1)
	if code, st := postJSON(t, base+"/cascade/admin/drain"); code != http.StatusOK || st.Member != "removed" {
		t.Fatalf("drain: status %d, %+v", code, st)
	}
	for round := 0; round < 2; round++ {
		resp, body := get(t, base, 7)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, store.SyntheticBody(7, 10000)) {
			t.Fatalf("round %d: a drained edge answered %d with %d bytes of a 10,000-byte object", round, resp.StatusCode, len(body))
		}
	}
	// A relay remembers nothing: each GET walked for its marker, and every
	// sub-request was relayed like any other.
	if got := hops[1].plain.Load(); got != 2 {
		t.Fatalf("hop 1 saw %d marker walks over two GETs through a drained edge, want 2", got)
	}
	if nodes[0].Contains(store.SegmentID(7, 0)) {
		t.Fatal("a drained node cached a segment")
	}

	// Mid-chain, a drained hop relays the marker and its generation on.
	postInvalidate(t, base, 7)
	if code, _ := postJSON(t, base+"/cascade/admin/admit"); code != http.StatusOK {
		t.Fatalf("admit: status %d", code)
	}
	if code, _ := postJSON(t, nodes[0].Upstream+"/cascade/admin/drain"); code != http.StatusOK {
		t.Fatalf("drain of hop 1: status %d", code)
	}
	resp, body := get(t, base, 7)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, store.SyntheticBody(7, 10000)) || resp.Header.Get(HeaderGen) != "1" {
		t.Fatalf("through a drained mid-chain hop: status %d, %d bytes, generation %q", resp.StatusCode, len(body), resp.Header.Get(HeaderGen))
	}
}

// TestPassThroughForwardsGeneration: a draining hop used to drop the
// request's X-Cascade-Gen, so a CAS read floor — and a segment's pin — died
// there.
func TestPassThroughForwardsGeneration(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	n := NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
	n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
		mu.Lock()
		seen = append(seen, r.Header.Get(HeaderSegment)+"|"+r.Header.Get(HeaderGen))
		mu.Unlock()
		if r.Header.Get(HeaderSegment) != "" {
			return upstreamReply(http.StatusPartialContent, 4, []byte("abcd"), HeaderGen, "9")
		}
		return upstreamReply(http.StatusOK, 4, []byte("abcd"), HeaderGen, "9")
	})}
	n.cp.StartDrain(selfSlot)
	n.cp.FinishDrain(selfSlot)

	plain := httptest.NewRequest(http.MethodGet, "/objects/3", nil)
	plain.Header.Set(headerPath, "0;-;-;1")
	plain.Header.Set(HeaderGen, "9")
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, plain)
	seg := segmentRequest("/objects/3", 0, 4, 4)
	seg.Header.Set(headerPath, "0;-;-;1")
	seg.Header.Set(HeaderGen, "9")
	rec2 := httptest.NewRecorder()
	n.ServeHTTP(rec2, seg)
	if rec.Code != http.StatusOK || rec2.Code != http.StatusPartialContent {
		t.Fatalf("relayed statuses %d and %d", rec.Code, rec2.Code)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "|9" || seen[1] != "0;4|9" {
		t.Fatalf("upstream saw (segment|generation) %q, want the floor and the pin forwarded: [|9 0;4|9]", seen)
	}
}

// TestHostileSegmentGeometry: the marker and the segment header are a peer's
// arithmetic. Neither may overflow, and neither may make a node issue more
// than store.MaxSegments sub-requests.
func TestHostileSegmentGeometry(t *testing.T) {
	maxI64 := strconv.FormatInt(math.MaxInt64, 10)
	for _, marker := range []string{
		maxI64 + ";2",       // SegmentCount used to overflow to a non-positive count: 200, Content-Length MaxInt64, no body
		maxI64 + ";" + "3",  // same, odd divisor
		"100000;1",          // one sub-request per byte
		"281474976710656;1", // 2^48 of them
		strconv.Itoa(store.MaxSegments+1) + ";1",
	} {
		t.Run("marker "+marker, func(t *testing.T) {
			var segments atomic.Int64
			n := NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })
			n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
				if r.Header.Get(HeaderSegment) == "" {
					return upstreamReply(http.StatusOK, 0, nil, HeaderSegmented, marker)
				}
				segments.Add(1)
				return upstreamReply(http.StatusPartialContent, 1, []byte("x"))
			})}
			rec := httptest.NewRecorder()
			n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
			if rec.Code != http.StatusBadGateway || rec.Header().Get(HeaderSegmented) != "" {
				t.Fatalf("status %d, Content-Length %q, marker %q; want a plain 502",
					rec.Code, rec.Header().Get("Content-Length"), rec.Header().Get(HeaderSegmented))
			}
			if got := segments.Load(); got != 0 {
				t.Fatalf("node issued %d sub-requests on a refused marker", got)
			}
			if got := n.badSegment.Load(); got != 1 {
				t.Fatalf("bad segment headers counted = %d, want 1", got)
			}
			if len(n.markers) != 0 {
				t.Fatal("a refused marker was remembered")
			}
		})
	}
	// The cap itself is accepted.
	if _, _, ok := parseSegmentedMarker(strconv.Itoa(store.MaxSegments) + ";1"); !ok {
		t.Fatalf("a marker of exactly %d segments refused", store.MaxSegments)
	}

	for _, header := range []string{
		"4611686018427387904;4", // idx*size overflows int64
		"3;" + maxI64,           // likewise
		"65536;1",               // past the cap
		"2;4611686018427387904", // 2 × 2^62
		"1;140737488355328",     // size at which MaxSegments segments overflow
		strconv.Itoa(store.MaxSegments) + ";256",
	} {
		for _, target := range []struct {
			name string
			h    http.Handler
		}{
			{"node", NewNode(1, "http://upstream.invalid", 2.0, 1<<20, 100, func() float64 { return 0 })},
			{"origin", largeOrigin()},
		} {
			t.Run(target.name+" segment "+header, func(t *testing.T) {
				r := httptest.NewRequest(http.MethodGet, "/objects/7", nil)
				r.Header.Set(HeaderSegment, header)
				r.Header.Set("Range", "bytes=0-3")
				rec := httptest.NewRecorder()
				target.h.ServeHTTP(rec, r)
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", rec.Code)
				}
			})
		}
	}
	// An origin asked to cut finer than the cap serves the object whole
	// rather than a marker no node accepts.
	o := &Origin{Size: func(model.ObjectID) int { return store.MaxSegments + 1 }, SegmentThreshold: 1, SegmentSize: 1}
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
	if rec.Header().Get(HeaderSegmented) != "" || rec.Body.Len() != store.MaxSegments+1 {
		t.Fatalf("marker %q, %d body bytes", rec.Header().Get(HeaderSegmented), rec.Body.Len())
	}
}

// FuzzSegmentHeaders feeds the three small parsers of the segment protocol
// the same string. None may panic; whatever one accepts must be bounded —
// no segment geometry whose offsets overflow or that takes more than
// store.MaxSegments sub-requests — and must re-encode to what was parsed.
func FuzzSegmentHeaders(f *testing.F) {
	for _, s := range []string{
		"0;4096", "3;262144", "10000;4096", "1048576;262144", "bytes=0-4095", "bytes=786432-1048575",
		"9223372036854775807;2", "4611686018427387904;4", "65535;140737488355327", "65536;1", "100000;1",
		"bytes=9223372036854775807-9223372036854775807", "bytes=-1", "bytes=5-", "bytes=7-3", "+1;+1", "1;1;1", ";", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if seg, err := parseSegmentRequest(http.Header{HeaderSegment: {v}}); err == nil && v != "" {
			if !seg.on || seg.idx < 0 || seg.idx >= store.MaxSegments || seg.size <= 0 {
				t.Fatalf("%q accepted as %+v", v, seg)
			}
			if lo := seg.lo(); lo < 0 || (seg.idx > 0 && lo/int64(seg.idx) != seg.size) || lo > math.MaxInt64-seg.size {
				t.Fatalf("%q: segment offset %d (+%d) overflows", v, lo, seg.size)
			}
			if again, err := parseSegmentRequest(http.Header{HeaderSegment: {seg.header()}}); err != nil || again != seg {
				t.Fatalf("%q → %+v → %q → %+v (%v)", v, seg, seg.header(), again, err)
			}
		}
		if total, segSize, ok := parseSegmentedMarker(v); ok {
			n := store.SegmentCount(total, segSize)
			if total <= 0 || segSize <= 0 || n < 1 || n > store.MaxSegments {
				t.Fatalf("%q accepted as %d bytes in %d-byte segments (%d of them)", v, total, segSize, n)
			}
			last := segInfo{on: true, idx: n - 1, size: segSize}
			if lo := last.lo(); lo < 0 || lo >= total || total-lo > segSize {
				t.Fatalf("%q: last segment starts at %d of %d", v, lo, total)
			}
			if t2, s2, ok := parseSegmentedMarker(formatSegmentedMarker(total, segSize)); !ok || t2 != total || s2 != segSize {
				t.Fatalf("%q does not re-encode to itself", v)
			}
		}
		if lo, hi, ok := parseByteRange(v); ok {
			if lo < 0 || hi < lo {
				t.Fatalf("%q accepted as [%d, %d]", v, lo, hi)
			}
			if lo2, hi2, ok := parseByteRange(fmtRange(lo, hi)); !ok || lo2 != lo || hi2 != hi {
				t.Fatalf("%q → [%d, %d] → %q does not parse back", v, lo, hi, fmtRange(lo, hi))
			}
			if want := fmt.Sprintf("bytes %d-%d/%d", lo, hi, hi); fmtContentRange(lo, hi, hi) != want {
				t.Fatalf("Content-Range %q, want %q", fmtContentRange(lo, hi, hi), want)
			}
		}
	})
}

// TestReassemblyOutcomesObservable: the counter family is registered whole,
// /cascade/stats shows it, and a reassembly that restarted or ended short
// keeps its trace whatever the sampling rate.
func TestReassemblyOutcomesObservable(t *testing.T) {
	c := newGenChain(t, coherency.ModeCAS, 1)
	n := c.nodes[0]
	n.EnableSpans(span.Policy{Rate: 0}, 64)
	c.get(n, genObj) // ok: sampled out
	if got := n.SpanRing().Len(); got != 0 {
		t.Fatalf("%d spans kept at rate 0 from an uneventful reassembly", got)
	}
	c.up.onSegment = func(idx int) {
		if idx == 2 && c.up.gen == 1 {
			c.up.gen = 2
		}
	}
	c.get(n, genObj) // marker_hit would be — but segment 2 is overtaken: truncated
	kept := false
	for _, s := range n.SpanRing().Spans() {
		kept = kept || s.Flags&span.FlagStale != 0
	}
	if !kept {
		t.Fatal("a truncated reassembly's trace was sampled out: the stale flag was not forced")
	}
	for _, outcome := range reassemblyOutcomeNames {
		reassemblies(t, n, outcome) // fatal when the series is missing
	}
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/stats", nil))
	if want := `"reassembly":{"ok":1,"marker_hit":0,"restarted":0,"truncated":1,"refused":0}`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/cascade/stats lacks %s:\n%s", want, rec.Body.String())
	}
}

// TestSegmentedWriteHammer: concurrent large GETs and writes through a 3-hop
// CAS chain in front of a Dir-mode origin whose file is rewritten with each
// write. Every complete body must be exactly one generation's bytes, carry
// that generation, and be no older than the last write the reader saw
// complete before it asked. Short bodies and 502s are the protocol's honest
// answers to a write that outran the read; they are tolerated, not spliced.
func TestSegmentedWriteHammer(t *testing.T) {
	const (
		fileSize = 64 << 10
		segSize  = 16 << 10
		writes   = 30
		readers  = 4
	)
	dir := t.TempDir()
	file := filepath.Join(dir, "big.bin")
	version := func(gen uint64) []byte { return store.SyntheticBody(model.ObjectID(gen), fileSize) }
	if err := os.WriteFile(file, version(0), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &Origin{Dir: dir, SegmentThreshold: segSize, SegmentSize: segSize, Authority: coherency.NewAuthority()}
	base, err := objectID(httptest.NewRequest(http.MethodGet, "/big.bin", nil))
	if err != nil {
		t.Fatal(err)
	}
	// The write is the file's new bytes and the generation bump together:
	// no request may see one without the other.
	var content sync.RWMutex
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cascade/admin/invalidate" {
			content.Lock()
			defer content.Unlock()
			if err := os.WriteFile(file, version(o.Authority.Gen(base)+1), 0o644); err != nil {
				t.Error(err)
			}
		} else {
			content.RLock()
			defer content.RUnlock()
		}
		o.ServeHTTP(w, r)
	}))
	t.Cleanup(origin.Close)
	clock, _ := testClock()
	upstream := origin.URL
	for i := 2; i >= 0; i-- {
		// Room for three of the four segments: hits, misses, placements and
		// evictions all happen.
		n := NewNode(model.NodeID(i), upstream, float64(i+1), 3*segSize, 100, clock)
		n.EnableCoherency(coherency.ModeCAS)
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		upstream = srv.URL
	}

	var acked atomic.Uint64 // the highest generation a completed write was acknowledged at
	var complete, short, refused atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := acked.Load()
				req, err := http.NewRequest(http.MethodGet, upstream+"/big.bin", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if floor > 0 {
					req.Header.Set(HeaderGen, strconv.FormatUint(floor, 10))
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusBadGateway:
					refused.Add(1)
				case resp.StatusCode != http.StatusOK:
					t.Errorf("status %d", resp.StatusCode)
					return
				case rerr != nil || len(body) < fileSize:
					short.Add(1)
				default:
					complete.Add(1)
					gen, _ := parseGen(resp.Header.Get(HeaderGen))
					if gen < floor {
						t.Errorf("read served at generation %d, below the write completed at %d before it began", gen, floor)
						return
					}
					if !bytes.Equal(body, version(gen)) {
						t.Errorf("a complete body labelled generation %d is not that generation's bytes: spliced or mislabelled", gen)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		gen := postInvalidate(t, upstream, int(base))
		acked.Store(gen)
		// Let reads land between writes, so complete bodies exist to check.
		for want := complete.Load() + 2; complete.Load() < want && !t.Failed(); {
			resp, err := http.Get(upstream + "/cascade/health")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	close(done)
	wg.Wait()
	if complete.Load() < writes {
		t.Fatalf("only %d complete bodies across %d writes (%d short, %d refused)", complete.Load(), writes, short.Load(), refused.Load())
	}
	t.Logf("%d complete single-generation bodies, %d short, %d refused across %d writes", complete.Load(), short.Load(), refused.Load(), writes)
}
