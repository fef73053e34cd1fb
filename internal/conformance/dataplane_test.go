// Data-plane conformance: the gateway chain must deliver byte-exact
// payloads under every protocol behaviour the descriptor plane exhibits —
// streamed relays, cache hits, revalidation, Range-segmented large objects
// and disk-spill round trips — on both reference topologies, with every
// auditor clean. Body integrity is proven by hashing: the origin's
// payloads are deterministic (store.SyntheticBody), so any truncation,
// reordering or corruption on any hop changes the hash.
package conformance

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cascade/internal/httpgw"
	"cascade/internal/model"
	"cascade/internal/store"
)

// countedOrigin wraps an Origin and counts object fetches that reached it,
// split into whole-object requests and per-segment Range requests.
type countedOrigin struct {
	o       *httpgw.Origin
	plain   atomic.Int64
	segment atomic.Int64
}

func (c *countedOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/objects/") {
		if r.Header.Get(httpgw.HeaderSegment) != "" {
			c.segment.Add(1)
		} else {
			c.plain.Add(1)
		}
	}
	c.o.ServeHTTP(w, r)
}

// dataplaneChain is gatewayChain with a counting origin and per-object
// sizes (the segmentation tests need a mixed catalog).
func dataplaneChain(t *testing.T, upCost []float64, capacity int64, size func(model.ObjectID) int, clock func() float64, threshold, segSize int64) (string, []*httpgw.Node, *countedOrigin) {
	t.Helper()
	co := &countedOrigin{o: &httpgw.Origin{Size: size, SegmentThreshold: threshold, SegmentSize: segSize}}
	co.o.EnableObservability(64, clock)
	origin := httptest.NewServer(co)
	t.Cleanup(origin.Close)
	upstream := origin.URL
	nodes := make([]*httpgw.Node, len(upCost))
	for i := len(upCost) - 1; i >= 0; i-- {
		n := httpgw.NewNode(model.NodeID(i), upstream, upCost[i], capacity, 256, clock)
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		upstream = srv.URL
		nodes[i] = n
	}
	return upstream, nodes, co
}

// dpGet fetches one object and returns the response (headers already
// consumed) plus the full body.
func dpGet(t *testing.T, client *http.Client, base string, obj model.ObjectID) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(base + "/objects/" + strconv.Itoa(int(obj)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object %d: status %d", obj, resp.StatusCode)
	}
	return resp, body
}

// assertAuditorsClean fails on any invariant violation anywhere in the
// chain, origin included.
func assertAuditorsClean(t *testing.T, nodes []*httpgw.Node, co *countedOrigin) {
	t.Helper()
	if v := co.o.Auditor().TotalViolations(); v != 0 {
		t.Errorf("origin: %d invariant violations", v)
	}
	for i, n := range nodes {
		if v := n.Auditor().TotalViolations(); v != 0 {
			t.Errorf("node %d: %d invariant violations", i, v)
		}
	}
}

// TestDataPlaneBodyIntegrity replays a mixed workload through both
// reference topologies and hashes every response body against the origin's
// deterministic payload. Capacity is tight enough that the replay
// exercises origin fetches, placements, relays and hits; whatever path the
// bytes took, the hash must match.
func TestDataPlaneBodyIntegrity(t *testing.T) {
	cases := []struct {
		name   string
		upCost []float64
	}{
		{name: "hierarchy", upCost: []float64{1, 2, 4, 8}},
		{name: "enroute", upCost: []float64{1, 3, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const (
				objects = 120
				objSize = 1000
			)
			clk := &logicalClock{}
			size := func(model.ObjectID) int { return objSize }
			base, nodes, co := dataplaneChain(t, tc.upCost, 12*objSize, size, clk.Now, 0, 0)
			client := &http.Client{}

			wantHash := make([]string, objects)
			for obj := 0; obj < objects; obj++ {
				wantHash[obj] = store.BodyHash(store.SyntheticBody(model.ObjectID(obj), objSize))
			}

			hitServed := 0
			for i := 0; i < 1500; i++ {
				clk.Set(float64(i))
				obj := model.ObjectID((i * 7) % objects)
				resp, body := dpGet(t, client, base, obj)
				if got := store.BodyHash(body); got != wantHash[obj] {
					t.Fatalf("request %d (obj %d): body hash %s, want %s (%d bytes)", i, obj, got, wantHash[obj], len(body))
				}
				if resp.ContentLength != objSize {
					t.Fatalf("request %d (obj %d): Content-Length %d", i, obj, resp.ContentLength)
				}
				if resp.Header.Get(httpgw.HeaderHit) != "origin" {
					hitServed++
				}
			}
			if hitServed == 0 {
				t.Fatal("no request was served by a cache; workload too cold to prove relay integrity")
			}
			assertAuditorsClean(t, nodes, co)
		})
	}
}

// TestDataPlaneSegmentedFetch proves large-object segmentation end to end
// on both topologies: an over-threshold object travels as three Range
// segments — each a first-class object identity with its own placement
// decision — and the client receives the byte-exact reassembly. Within a
// few fetches the segments must be served entirely from the caches (zero
// origin segment traffic), and the auditors must stay clean throughout.
func TestDataPlaneSegmentedFetch(t *testing.T) {
	cases := []struct {
		name   string
		upCost []float64
	}{
		{name: "hierarchy", upCost: []float64{1, 2, 4, 8}},
		{name: "enroute", upCost: []float64{1, 3, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const (
				smallSize = 800
				largeSize = 10000
				segSize   = 4096 // ceil(10000/4096) = 3 segments
				largeObj  = model.ObjectID(42)
				nsegs     = 3
			)
			clk := &logicalClock{}
			size := func(obj model.ObjectID) int {
				if obj == largeObj {
					return largeSize
				}
				return smallSize
			}
			base, nodes, co := dataplaneChain(t, tc.upCost, 1<<20, size, clk.Now, segSize, segSize)
			client := &http.Client{}
			want := store.SyntheticBody(largeObj, largeSize)

			// Cold fetch: exactly nsegs Range requests reach the origin.
			clk.Set(0)
			resp, body := dpGet(t, client, base, largeObj)
			if got := co.segment.Load(); got != nsegs {
				t.Fatalf("cold fetch used %d origin segment requests, want %d", got, nsegs)
			}
			if resp.Header.Get(httpgw.HeaderSegmented) != fmt.Sprintf("%d;%d", largeSize, segSize) {
				t.Fatalf("segmented marker %q", resp.Header.Get(httpgw.HeaderSegmented))
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("cold reassembly diverged (%d bytes, want %d)", len(body), len(want))
			}

			// Warm fetches: descriptors seed first, placements land after;
			// within four fetches no segment request may reach the origin.
			warm := false
			for attempt := 1; attempt <= 4 && !warm; attempt++ {
				clk.Set(float64(attempt * 10))
				before := co.segment.Load()
				_, body := dpGet(t, client, base, largeObj)
				if !bytes.Equal(body, want) {
					t.Fatalf("attempt %d: reassembly diverged", attempt)
				}
				warm = co.segment.Load() == before
			}
			if !warm {
				t.Fatal("segments never fully served from the caches")
			}

			// Each segment is its own object in some node's store.
			cached := 0
			for idx := 0; idx < nsegs; idx++ {
				sid := store.SegmentID(largeObj, idx)
				for _, n := range nodes {
					if n.Contains(sid) {
						cached++
						break
					}
				}
			}
			if cached == 0 {
				t.Fatal("no segment identity cached anywhere in the chain")
			}

			// Small objects keep traveling whole, byte-exact.
			clk.Set(100)
			resp, body = dpGet(t, client, base, 7)
			if resp.Header.Get(httpgw.HeaderSegmented) != "" {
				t.Fatal("under-threshold object was segmented")
			}
			if !bytes.Equal(body, store.SyntheticBody(7, smallSize)) {
				t.Fatal("small-object body diverged")
			}
			assertAuditorsClean(t, nodes, co)
		})
	}
}

// TestDataPlaneSpill drives a tight front cache with a disk spill tier:
// NCL evictions must land their payload on disk (byte-accounted in stats),
// and a re-request of a spilled object must be served by the front node
// from disk — zero origin traffic — with the payload intact and promoted
// back into the cache.
func TestDataPlaneSpill(t *testing.T) {
	const objSize = 1000
	clk := &logicalClock{}
	size := func(model.ObjectID) int { return objSize }
	base, nodes, co := dataplaneChain(t, []float64{1, 4}, 3*objSize, size, clk.Now, 0, 0)
	front := nodes[0]
	if err := front.EnableSpill(t.TempDir(), 0, 0); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}

	// Hot bursts: each object in turn earns a placement at the front node,
	// displacing (and spilling) an earlier one.
	for obj := model.ObjectID(0); obj < 8; obj++ {
		for k := 0; k < 5; k++ {
			clk.Set(float64(int(obj)*10 + k))
			dpGet(t, client, base, obj)
		}
	}
	bs := front.BodyStats()
	if bs.SpillBytesTotal == 0 {
		t.Fatalf("churn produced no spills: %+v", bs)
	}

	spilled := model.ObjectID(-1)
	for obj := model.ObjectID(0); obj < 8; obj++ {
		if front.SpillContains(obj) && !front.Contains(obj) {
			spilled = obj
			break
		}
	}
	if spilled < 0 {
		t.Fatalf("no object is disk-only after churn: %+v", bs)
	}

	plainBefore := co.plain.Load()
	clk.Set(200)
	resp, body := dpGet(t, client, base, spilled)
	if got := resp.Header.Get(httpgw.HeaderHit); got != "0" {
		t.Fatalf("spill re-request served by %q, want front node 0", got)
	}
	if co.plain.Load() != plainBefore {
		t.Fatal("spill re-request reached the origin")
	}
	if !bytes.Equal(body, store.SyntheticBody(spilled, objSize)) {
		t.Fatal("spilled payload corrupted")
	}
	if !front.Contains(spilled) {
		t.Fatal("spilled object not promoted back into the cache")
	}
	bs = front.BodyStats()
	if bs.DiskHits == 0 || bs.Promotions == 0 {
		t.Fatalf("disk hit not accounted: %+v", bs)
	}
	assertAuditorsClean(t, nodes, co)
	assertBytesAgree(t, nil, 0, nodes)
}
