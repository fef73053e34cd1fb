package federate

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cascade/internal/httpgw"
	"cascade/internal/metrics"
	"cascade/internal/model"
)

func TestParsePrometheus(t *testing.T) {
	in := `# HELP cascade_gw_hits_total Requests served.
# TYPE cascade_gw_hits_total counter
cascade_gw_hits_total{node="0"} 7
cascade_up 1
cascade_gw_request_seconds_bucket{node="0",le="0.001"} 3
cascade_path{p="a\"b\\c\n"} 2.5
`
	samples, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4: %+v", len(samples), samples)
	}
	if s := samples[0]; s.Name != "cascade_gw_hits_total" || s.Label("node") != "0" || s.Value != 7 {
		t.Fatalf("sample 0: %+v", s)
	}
	if s := samples[1]; s.Name != "cascade_up" || len(s.Labels) != 0 || s.Value != 1 {
		t.Fatalf("sample 1: %+v", s)
	}
	if s := samples[2]; s.Label("le") != "0.001" || s.Value != 3 {
		t.Fatalf("sample 2: %+v", s)
	}
	if s := samples[3]; s.Label("p") != "a\"b\\c\n" || s.Value != 2.5 {
		t.Fatalf("sample 3 (escapes): %+v", s)
	}

	for _, bad := range []string{"noval", `x{unterminated="`, "x{a=b} 1", "x notanumber"} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted garbage", bad)
		}
	}
}

// TestHistogramReconstruction records into a registry summary, scrapes the
// exposition, and rebuilds the distribution from the _bucket lines: every
// quantile must match the original exactly — the merged-bucket equivalence
// federation depends on.
func TestHistogramReconstruction(t *testing.T) {
	r := metrics.NewRegistry()
	s := r.Summary("demo_seconds", "demo", metrics.L("node", "0"))
	var want metrics.Histogram
	for i := 1; i <= 3000; i++ {
		v := math.Pow(10, float64(i%160)/20-5)
		if i%30 == 0 {
			v = 0
		}
		s.Record(v)
		want.Record(v)
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	v := &View{Hops: []Hop{{Samples: samples}}}
	got := v.Histogram("demo_seconds", nil)
	if got.Count() != want.Count() {
		t.Fatalf("rebuilt count %d, want %d", got.Count(), want.Count())
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q%v: rebuilt %v, want %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
}

// TestFederateChain runs a real three-node gateway chain, drives traffic,
// and checks discovery, scraping and the derived SLIs end to end.
func TestFederateChain(t *testing.T) {
	origin := httptest.NewServer(&httpgw.Origin{Size: func(model.ObjectID) int { return 500 }})
	defer origin.Close()

	const levels = 3
	upstream := origin.URL
	for i := levels - 1; i >= 0; i-- {
		n := httpgw.NewNode(model.NodeID(i), upstream, float64(i+1), 1<<20, 100, func() float64 { return 0 })
		srv := httptest.NewServer(n)
		defer srv.Close()
		upstream = srv.URL
	}
	edge := upstream

	// Three passes: the first seeds descriptors, the second places copies,
	// the third hits them.
	for pass := 0; pass < 3; pass++ {
		for obj := 0; obj < 10; obj++ {
			resp, err := http.Get(edge + "/objects/" + strconv.Itoa(obj))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}

	var f Federator
	urls, err := f.Discover(edge)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != levels {
		t.Fatalf("discovered %d hops, want %d: %v", len(urls), levels, urls)
	}

	view, err := f.Scrape(edge)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Hops) != levels {
		t.Fatalf("scraped %d hops, want %d", len(view.Hops), levels)
	}
	for i, h := range view.Hops {
		if h.Node != i {
			t.Fatalf("hop %d reports node %d (chain order broken)", i, h.Node)
		}
		if len(h.Samples) == 0 {
			t.Fatalf("hop %d scraped no series", i)
		}
		if h.Membership != "active" {
			t.Fatalf("hop %d membership %q", i, h.Membership)
		}
	}

	slis := view.SLIs()
	if slis.EdgeRequests != 30 {
		t.Fatalf("edge requests %v, want 30", slis.EdgeRequests)
	}
	// Second pass hits a cache somewhere: the e2e hit ratio must show it.
	if slis.EndToEndHit <= 0 || slis.EndToEndHit > 1 {
		t.Fatalf("end-to-end hit ratio %v out of range", slis.EndToEndHit)
	}
	if len(slis.PerHop) != levels {
		t.Fatalf("per-hop contributions: %d entries", len(slis.PerHop))
	}
	totalHits := 0.0
	for _, c := range slis.PerHop {
		totalHits += c.Hits
	}
	if want := slis.EndToEndHit * slis.EdgeRequests; math.Abs(totalHits-want) > 1e-9 {
		t.Fatalf("hop hits sum %v inconsistent with e2e ratio (want %v)", totalHits, want)
	}
	if slis.StaleServes != 0 || slis.CASConflicts != 0 {
		t.Fatalf("unexpected staleness: %+v", slis)
	}
	// The merged edge latency histogram must carry one sample per edge
	// request (the fake clock makes them all exact zeros).
	lat := view.Histogram("cascade_gw_request_seconds", []int{0})
	if lat.Count() != 30 {
		t.Fatalf("edge latency histogram holds %d samples, want 30", lat.Count())
	}
}

// TestDiscoverRejectsNonCascade points discovery at a server that is not a
// cascade node.
func TestDiscoverRejectsNonCascade(t *testing.T) {
	srv := httptest.NewServer(&httpgw.Origin{Size: func(model.ObjectID) int { return 1 }})
	defer srv.Close()
	var f Federator
	if _, err := f.Discover(srv.URL); err == nil {
		t.Fatal("discovery accepted an origin as a chain edge")
	}
}

// TestDiscoverStatsCapped: Discover reads /cascade/stats through
// maxStatsBytes, so an edge streaming a huge JSON string fails discovery
// at a bounded cost instead of growing the decoder's buffer.
func TestDiscoverStatsCapped(t *testing.T) {
	chunk := bytes.Repeat([]byte("a"), 32<<10)
	edge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"node":0,"upstream":"`) //nolint:errcheck
		for i := 0; i < (64<<20)/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				return // the reader gave up
			}
		}
		io.WriteString(w, `"}`) //nolint:errcheck
	}))
	defer edge.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	urls, err := (&Federator{}).Discover(edge.URL)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; err == nil || alloc >= 4<<20 {
		t.Fatalf("Discover against a huge stats reply: %v, err %v, allocated %d bytes; want an error under 4 MiB", urls, err, alloc)
	}
}
