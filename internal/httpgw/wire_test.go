package httpgw

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// TestPathEntryLegacyTextual pins backward compatibility of the textual
// path entry: a generation-free four-field entry still parses (gen zero),
// and a zero-generation candidate still formats as four fields — the
// pre-coherency wire image byte for byte.
func TestPathEntryLegacyTextual(t *testing.T) {
	legacy := "3;0.5;1.25;2"
	out, err := parsePath(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Gen != 0 || out[0].Tag != engine.TagCandidate {
		t.Fatalf("legacy entry parsed to %+v", out)
	}
	if got := formatEntry(out[0]); got != legacy {
		t.Fatalf("zero-gen candidate reformats to %q, want %q", got, legacy)
	}
	if _, err := parsePath("3;0.5;1.25;2;not-a-gen"); err == nil {
		t.Fatal("malformed generation field accepted")
	}
}

// badPaths is the malformed-input table for X-Cascade-Path: parsePath must
// refuse each whole, and FuzzWireText starts from them.
var badPaths = []string{
	"1",
	"1;2;3",
	"1;2;3;4;5;6",
	"x;1;1;1",
	"1;x;1;1",
	"1;1;x;1",
	"1;1;1;x",
	"1;1;1;1;-7",
	"1;1;1;1,",
	",1;1;1;1",
	// A node ID is 32 bits wide: anything wider used to truncate onto some
	// other node (4294967297 → node 1).
	"4294967297;1;1;0.1",
	"-2147483649;-;-;1",
	// Non-finite floats are not frequencies or costs and poison every sum
	// they enter.
	"1;NaN;1;1",
	"1;1;Inf;1",
	"1;1;1;-Inf",
	"1;-;-;NaN",
	"1;1e999;1;1",
}

func TestPathMalformed(t *testing.T) {
	for _, h := range badPaths {
		if out, err := parsePath(h); err == nil {
			t.Errorf("parsePath(%q) = %+v, want an error", h, out)
		}
	}
}

// badInvals is the malformed-input table for X-Cascade-Inval.
var badInvals = []string{
	"",
	"7",
	"x|1:2:3",
	"-1|1:2:3",
	"7|1:2:3,garbled",
	"7|1:2:-3",
	"7|1:2:3,", // trailing comma
	"7|,1:2:3", // leading comma
	"7|1:2:3,,4:5:6",
	"7|1::3", // empty field
	"7|:2:3",
	"7|1:2:",
	"7|1:2:3:4", // four fields
	"7|1:2",
	"7|1:2:3 ",
}

// TestInvalHeaderMalformed pins the explicit bad-header policy: a garbled
// X-Cascade-Gen zero-defaults and a garbled X-Cascade-Inval drops the whole
// batch, each flagged for the gateway's counters; the placement decision
// itself still parses.
func TestInvalHeaderMalformed(t *testing.T) {
	h := http.Header{}
	h.Set(HeaderPlace, "1")
	h.Set(HeaderGen, "banana")
	h.Set(headerInval, "7|1:2:3,garbled")
	d, err := parseDecision(h)
	if err != nil {
		t.Fatal(err)
	}
	if !d.badGen || !d.badInval {
		t.Fatalf("malformed headers not flagged: %+v", d)
	}
	if d.gen != 0 || d.inval != nil || d.invHead != 0 {
		t.Fatalf("malformed payloads not dropped: %+v", d)
	}
	if len(d.place) != 1 || d.place[0] != 1 {
		t.Fatalf("placement lost: %+v", d)
	}
	if _, _, ok := parseInval("7|1:2:-3"); ok {
		t.Fatal("negative object ID accepted")
	}
	if head, tail, ok := parseInval("5|"); !ok || head != 5 || tail != nil {
		t.Fatal("empty tail with head rejected")
	}
	for _, v := range badInvals {
		if head, tail, ok := parseInval(v); ok || head != 0 || tail != nil {
			t.Errorf("parseInval(%q) = %d, %+v, %v; want nothing and !ok", v, head, tail, ok)
		}
	}
	want := []coherency.Invalidation{{Seq: 8, Obj: 17, Gen: 3}, {Seq: 9, Obj: 1 << 40, Gen: math.MaxUint64}}
	if head, tail, ok := parseInval(formatInval(9, want)); !ok || head != 9 || !reflect.DeepEqual(tail, want) {
		t.Errorf("round trip: %d, %+v, %v", head, tail, ok)
	}
}

// TestInvalCodecAllocs holds format + parse of a full coherency.TailK tail —
// what every origin-served response carries once TailK writes have happened,
// re-parsed and re-formatted at every hop — to a handful of allocations: the
// format buffer, its string, and the parsed slice.
func TestInvalCodecAllocs(t *testing.T) {
	tail := make([]coherency.Invalidation, coherency.TailK)
	for i := range tail {
		tail[i] = coherency.Invalidation{Seq: uint64(100000 + i), Obj: model.ObjectID(7919 * i), Gen: uint64(1 + i%5)}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, got, ok := parseInval(formatInval(100031, tail)); !ok || len(got) != len(tail) {
			t.Fatalf("round trip lost the tail: %d entries, ok=%v", len(got), ok)
		}
	})
	if allocs > 4 {
		t.Errorf("format + parse of a %d-entry tail allocates %.0f times, want <= 4", len(tail), allocs)
	}
}

// hostileUpstream answers every request like an origin would, with the given
// decision headers verbatim.
func hostileUpstream(t *testing.T, hdr map[string]string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		w.Header().Set(headerPenalty, "0")
		w.Header().Set(HeaderHit, "origin")
		w.Write(make([]byte, 64)) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestWideNodeIDNotTruncated: model.NodeID is an int32, and the parsers used
// to convert through int — so 4294967297 became node 1 in a path entry, a
// placement instruction and a prediction. It is malformed in all three.
func TestWideNodeIDNotTruncated(t *testing.T) {
	if out := parsePlacementList("4294967297,2"); !reflect.DeepEqual(out, []model.NodeID{2}) {
		t.Errorf("parsePlacementList kept a wide ID: %v", out)
	}
	if out := parsePredictTerms("4294967297=2.5,2=1"); !reflect.DeepEqual(out, []predictTerm{{Node: 2, Term: 1}}) {
		t.Errorf("parsePredictTerms kept a wide ID: %v", out)
	}
	// On the wire: a placement instruction for node 4294967297 is not one
	// for node 1, and a path naming it is refused and counted.
	n := NewNode(1, hostileUpstream(t, map[string]string{HeaderPlace: "4294967297"}), 1, 1<<20, 64, func() float64 { return 0 })
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/5", nil))
	if rec.Code != http.StatusOK || n.inserts.Load() != 0 || n.Contains(5) {
		t.Errorf("status %d, %d inserts: node 1 took a placement addressed to node 4294967297", rec.Code, n.inserts.Load())
	}
	req := httptest.NewRequest(http.MethodGet, "/objects/5", nil)
	req.Header.Set(headerPath, "4294967297;1;1;0.1")
	rec = httptest.NewRecorder()
	n.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("wide node ID in a path: status %d, want 400", rec.Code)
	}
	if got := scrapeCounter(t, n, `cascade_gw_bad_header_total{header="path",node="1"}`); got != "1" {
		t.Errorf("counted %s bad paths, want 1", got)
	}
}

// TestNonFiniteNumbersRefused: a NaN prediction used to reach the placing
// node's ledger (predictFor → RecordPrediction → +=) and leave
// cascade_ledger_predicted_gain NaN for the life of the process; a NaN or
// Inf path entry used to enter the DP.
func TestNonFiniteNumbersRefused(t *testing.T) {
	if out := parsePredictTerms("0=NaN,1=+Inf,2=-Inf,3=0.5"); !reflect.DeepEqual(out, []predictTerm{{Node: 3, Term: 0.5}}) {
		t.Errorf("parsePredictTerms kept non-finite terms: %v", out)
	}
	up := hostileUpstream(t, map[string]string{HeaderPlace: "0", headerPredict: "0=NaN"})
	n := NewNode(0, up, 1, 1<<20, 64, func() float64 { return 0 })
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/5", nil))
	if rec.Code != http.StatusOK || n.inserts.Load() != 1 {
		t.Fatalf("status %d, %d inserts: the placement itself must survive a bad prediction", rec.Code, n.inserts.Load())
	}
	if got := scrapeCounter(t, n, `cascade_ledger_predicted_gain{node="0"}`); got != "0" {
		t.Errorf("ledger predicted gain reads %s after a NaN prediction, want 0", got)
	}
	for _, path := range []string{"1;NaN;Inf;1", "1;-;-;Inf"} {
		req := httptest.NewRequest(http.MethodGet, "/objects/6", nil)
		req.Header.Set(headerPath, path)
		rec = httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("path %q: status %d, want 400", path, rec.Code)
		}
	}
}

// TestOverCapDecisionListsRefused: the placement, prediction and invalidation
// lists of a response are peer-supplied bytes (net/http admits a 10 MB
// response header, and the down step walks the tail under the node lock). One
// entry past maxPathEntries fails the whole decision with 502, before the
// list is split; a list at the cap is served.
func TestOverCapDecisionListsRefused(t *testing.T) {
	list := func(entry string, n int) string { return strings.TrimSuffix(strings.Repeat(entry+",", n), ",") }
	for name, mk := range map[string]func(n int) map[string]string{
		"place": func(n int) map[string]string { return map[string]string{HeaderPlace: list("9", n)} },
		"predict": func(n int) map[string]string {
			return map[string]string{HeaderPlace: "9", headerPredict: list("9=1", n)}
		},
		"inval": func(n int) map[string]string {
			return map[string]string{HeaderPlace: "9", headerInval: "1|" + list("1:2:3", n)}
		},
	} {
		for n, want := range map[int]int{maxPathEntries: http.StatusOK, maxPathEntries + 1: http.StatusBadGateway} {
			node := NewNode(0, hostileUpstream(t, mk(n)), 1, 1<<20, 64, func() float64 { return 0 })
			node.EnableCoherency(coherency.ModePSI)
			rec := httptest.NewRecorder()
			node.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/5", nil))
			if rec.Code != want {
				t.Errorf("%s list of %d entries: status %d, want %d", name, n, rec.Code, want)
			}
		}
	}
	if _, _, ok := parseInval("1|" + list("1:2:3", maxPathEntries+1)); ok {
		t.Error("parseInval accepted a tail over the cap")
	}
}

// TestOldPeerAdvertIgnored pins mixed chains with builds that still carry
// the binary frame. Such a peer advertises "bf4" on X-Cascade-Accept but
// sends a frame only after seeing the advert come back; this build never
// advertises, so both sides stay on the textual headers — and every
// X-Cascade-* name this build puts on the wire is one of the eleven Header*
// constants.
func TestOldPeerAdvertIgnored(t *testing.T) {
	known := map[string]bool{}
	for _, h := range []string{headerPath, HeaderPlace, headerPenalty, HeaderHit, headerPredict, headerDegraded,
		HeaderSegment, HeaderSegmented, HeaderGen, headerInval, headerTraceCtx} {
		known[http.CanonicalHeaderKey(h)] = true // the form net/http puts on the wire
	}
	if len(known) != 11 {
		t.Fatalf("%d protocol headers, want 11", len(known))
	}
	seen := map[string]bool{}
	checkNames := func(side string, h http.Header) {
		t.Helper()
		for name := range h {
			if !strings.HasPrefix(name, "X-Cascade-") {
				continue
			}
			seen[name] = true
			if !known[name] {
				t.Errorf("%s carries %s, not one of the protocol's headers", side, name)
			}
		}
	}

	auth := coherency.NewAuthority()
	auth.Bump(3)
	o := &Origin{Size: func(model.ObjectID) int { return 64 }, Authority: auth}
	// An old upstream: advertises on every response, whatever it was sent.
	var upstreamSaw []http.Header
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upstreamSaw = append(upstreamSaw, r.Header.Clone())
		w.Header().Set("X-Cascade-Accept", "bf4")
		o.ServeHTTP(w, r)
	}))
	defer old.Close()

	n := NewNode(0, old.URL, 1, 1<<20, 64, func() float64 { return 0 })
	n.EnableCoherency(coherency.ModePSI)
	n.EnableSpans(span.Policy{Rate: 1}, 16)
	for i := 0; i < 3; i++ {
		// An old downstream: advertises on every request.
		req := httptest.NewRequest(http.MethodGet, "/objects/3", nil)
		req.Header.Set("X-Cascade-Accept", "bf4")
		req.Header.Set(headerPath, "7;0.5;1;2")
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if _, ok := resp.Header[HeaderPlace]; !ok {
			t.Errorf("request %d: advertising client was not answered with the textual decision: %v", i, resp.Header)
		}
		for _, gone := range []string{"X-Cascade-Accept", "X-Cascade-Frame"} {
			if v := resp.Header.Get(gone); v != "" {
				t.Errorf("request %d: response carries %s: %q", i, gone, v)
			}
		}
		checkNames("client response", resp.Header)
	}
	if len(upstreamSaw) == 0 {
		t.Fatal("no request reached the upstream")
	}
	for i, h := range upstreamSaw {
		if h.Get(headerPath) == "" {
			t.Errorf("upstream request %d carries no X-Cascade-Path after the upstream advertised bf4: %v", i, h)
		}
		checkNames("upstream request", h)
	}
	for _, h := range []string{headerPath, headerTraceCtx, HeaderPlace, headerPenalty, HeaderHit, HeaderGen, headerInval} {
		if !seen[http.CanonicalHeaderKey(h)] {
			t.Errorf("exchange never carried %s; the name check is vacuous for it", h)
		}
	}
}

// FuzzWireText feeds arbitrary strings to the decoders a peer reaches:
// parsePath and, as header values, parseDecision. Neither may panic, and
// whatever they accept is bounded (≤ maxPathEntries per list), finite,
// within the node-ID range by construction of the types, and a fixed point
// of format → parse: re-encoding what was parsed and parsing that again
// yields the identical structs.
func FuzzWireText(f *testing.F) {
	for _, p := range badPaths {
		f.Add(p, "", "", "", "")
	}
	for _, v := range badInvals {
		f.Add("", "1", "1=0.5", "3", v)
	}
	f.Add("3;0.5;1.25;2, 4;-;-;1;9", "0,2,5", "0=0.1,2=3.141592653589793,5=5e-324", "41", "9|8:17:3,9:1099511627776:18446744073709551615")
	f.Add("4294967297;1;1;0.1", "4294967297", "4294967297=2.5,0=NaN", "banana", "5|")
	f.Fuzz(func(t *testing.T, path, place, predict, gen, inval string) {
		finite := func(vs ...float64) {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite %v", v)
				}
			}
		}
		if entries, err := parsePath(path); err == nil {
			if len(entries) > maxPathEntries {
				t.Fatalf("accepted %d path entries", len(entries))
			}
			for _, e := range entries {
				finite(e.Freq, e.CostLoss, e.Link)
			}
			h := http.Header{}
			writePath(h, entries, span.Ctx{})
			again, err := parsePath(h.Get(headerPath))
			if err != nil || !reflect.DeepEqual(again, entries) {
				t.Fatalf("path not a fixed point:\n in %+v\nout %+v (%v)", entries, again, err)
			}
		}

		h := http.Header{}
		h.Set(HeaderPlace, place)
		h.Set(headerPredict, predict)
		h.Set(HeaderGen, gen)
		h.Set(headerInval, inval)
		d, err := parseDecision(h)
		if err != nil {
			return
		}
		if len(d.place) > maxPathEntries || len(d.predict) > maxPathEntries || len(d.inval) > maxPathEntries {
			t.Fatalf("accepted lists of %d/%d/%d entries", len(d.place), len(d.predict), len(d.inval))
		}
		for _, p := range d.predict {
			finite(p.Term)
		}
		d.badGen, d.badInval = false, false // properties of the input, not of the decision
		re := http.Header{}
		writeDecision(re, d)
		again, err := parseDecision(re)
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("decision not a fixed point:\n in %+v\nout %+v (%v)\nvia %v", d, again, err, re)
		}
	})
}

// scrapeCounter reads one exactly-named series from a handler's
// /cascade/metrics.
func scrapeCounter(t *testing.T, h http.Handler, series string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cascade/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	t.Fatalf("series %s not in scrape:\n%s", series, rec.Body.String())
	return ""
}

// TestOversizedPathRefused closes the quadratic-DP hole: a path of 120,000
// entries fits inside net/http's default 1 MB header limit and used to hold
// a handler for seconds in the §2.2 DP. Node and origin alike must refuse
// it with 400 — fast, before any lookup, allocation or decision — and count
// it.
func TestOversizedPathRefused(t *testing.T) {
	o := &Origin{Size: func(model.ObjectID) int { return 64 }}
	o.EnableObservability(8, nil)
	n := NewNode(0, "http://unreachable.invalid", 1, 1<<20, 64, func() float64 { return 0 })
	long := strings.Repeat("1;1;0;1,", 119999) + "1;1;0;1"

	for name, h := range map[string]http.Handler{"node": n, "origin": o} {
		req := httptest.NewRequest(http.MethodGet, "/objects/1", nil)
		req.Header.Set(headerPath, long)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		if took := time.Since(start); rec.Code != http.StatusBadRequest || took > 50*time.Millisecond {
			t.Errorf("%s: status %d after %s, want 400 within 50ms", name, rec.Code, took)
		}
	}
	if got := scrapeCounter(t, n, `cascade_gw_bad_header_total{header="path",node="0"}`); got != "1" {
		t.Errorf("node counted %s bad paths, want 1", got)
	}
	if got := scrapeCounter(t, o, `cascade_gw_bad_header_total{header="path",node="origin"}`); got != "1" {
		t.Errorf("origin counted %s bad paths, want 1", got)
	}
	if n.misses.Load() != 0 {
		t.Errorf("refused requests still took %d protocol steps", n.misses.Load())
	}
	// The bound itself is generous: a path at the cap is served.
	req := httptest.NewRequest(http.MethodGet, "/objects/1", nil)
	req.Header.Set(headerPath, strings.Repeat("1;-;-;1,", maxPathEntries-1)+"1;-;-;1")
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("path of exactly %d entries refused with %d", maxPathEntries, rec.Code)
	}
}

// TestMalformedPathJoinsNoTrace guards the span ring against refused
// requests: a malformed X-Cascade-Path beside a well-formed
// X-Cascade-TraceCtx answers 400 before the node joins the trace, so an
// attacker-chosen trace ID never lands in the ring.
func TestMalformedPathJoinsNoTrace(t *testing.T) {
	n := NewNode(0, "http://unreachable.invalid", 1, 1<<20, 64, func() float64 { return 0 })
	n.EnableSpans(span.Policy{Rate: 1}, 16)
	ctx := span.Ctx{Trace: span.TraceID{Hi: 0xfeedface, Lo: 1}, Parent: 42}
	for _, path := range []string{"garbage", "1;NaN;1;1", "4294967297;-;-;1"} {
		req := httptest.NewRequest(http.MethodGet, "/objects/1", nil)
		req.Header.Set(headerPath, path)
		req.Header.Set(headerTraceCtx, ctx.String())
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("path %q: status %d, want 400", path, rec.Code)
		}
	}
	if spans := n.DumpSpans().Spans; len(spans) != 0 {
		t.Errorf("refused requests left %d spans in the ring: %+v", len(spans), spans)
	}
	if got := scrapeCounter(t, n, `cascade_gw_bad_header_total{header="path",node="0"}`); got != "3" {
		t.Errorf("counted %s bad paths, want 3", got)
	}
}
