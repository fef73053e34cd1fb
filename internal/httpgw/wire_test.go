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

// badTails is the malformed-input table for the tail field of
// X-Cascade-Decision.
var badTails = []string{
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

// badDecisions is the malformed-input table for whole X-Cascade-Decision
// values: parseDecision must refuse each.
var badDecisions = []string{
	"x",
	";1=0.5",
	"-1",
	"NaN",
	"Inf",
	"1e999",
	" 0",
	"0;1",
	"0;=1",
	"0;1=",
	"0;1=1,",
	"0;,1=1",
	"0;1=1,,2=1",
	"0;1=x",
	"0;1=NaN",
	"0;1=-Inf",
	"0;4294967297=1",
	"0;1=1;5|;",
	"0;1=1;5|1:2:3;x",
	"0;;",
}

// TestInvalHeaderMalformed pins the tail field's rules: a garbled tail
// fails the whole decision, a head with an empty tail is one, and any
// generation, object and sequence round-trips. A garbled X-Cascade-Gen
// reports !ok, for the caller to count and zero-default.
func TestInvalHeaderMalformed(t *testing.T) {
	for _, v := range badTails {
		if _, d, ok := parseDecision("0;1=0;" + v); ok {
			t.Errorf("tail %q parsed to %+v, want the decision refused", v, d)
		}
	}
	for _, v := range badDecisions {
		if _, d, ok := parseDecision(v); ok {
			t.Errorf("parseDecision(%q) = %+v, want it refused", v, d)
		}
	}
	if _, d, ok := parseDecision("0;;5|"); !ok || d.invHead != 5 || d.inval != nil || d.place != nil {
		t.Fatalf("empty tail with head: %+v, %v", d, ok)
	}
	want := decision{invHead: 9, inval: []coherency.Invalidation{{Seq: 8, Obj: 17, Gen: 3}, {Seq: 9, Obj: 1 << 40, Gen: math.MaxUint64}}}
	want.encode()
	if _, d, ok := parseDecision("0" + want.rest); !ok || !reflect.DeepEqual(d, want) {
		t.Errorf("round trip of %q: %+v, %v", want.rest, d, ok)
	}
	if _, ok := parseGen("banana"); ok {
		t.Error("a garbled generation parsed")
	}
}

// TestInvalCodecAllocs holds encode + parse of a full coherency.TailK tail —
// what every origin-served response carries once TailK writes have
// happened, parsed once at every hop — to a handful of allocations: the
// encode buffer, its string, and the parsed slice.
func TestInvalCodecAllocs(t *testing.T) {
	d := decision{invHead: 100031, inval: make([]coherency.Invalidation, coherency.TailK)}
	for i := range d.inval {
		d.inval[i] = coherency.Invalidation{Seq: uint64(100000 + i), Obj: model.ObjectID(7919 * i), Gen: uint64(1 + i%5)}
	}
	allocs := testing.AllocsPerRun(200, func() {
		d.encode()
		if _, got, ok := parseDecision("0" + d.rest); !ok || len(got.inval) != len(d.inval) {
			t.Fatalf("round trip lost the tail: %d entries, ok=%v", len(got.inval), ok)
		}
	})
	if allocs > 4 {
		t.Errorf("encode + parse of a %d-entry tail allocates %.0f times, want <= 4", len(d.inval), allocs)
	}
}

// penaltyOf is the counter field of a response's X-Cascade-Decision.
func penaltyOf(h http.Header) string {
	pen, _, _ := strings.Cut(h.Get(HeaderDecision), ";")
	return pen
}

// placedAt lists the nodes a response's X-Cascade-Decision places at.
func placedAt(t *testing.T, h http.Header) []model.NodeID {
	t.Helper()
	_, d, ok := parseDecision(h.Get(HeaderDecision))
	if !ok {
		t.Fatalf("decision %q does not parse", h.Get(HeaderDecision))
	}
	var ids []model.NodeID
	for _, p := range d.place {
		ids = append(ids, p.Node)
	}
	return ids
}

// hostileUpstream answers every request like an origin would, with the given
// headers verbatim (X-Cascade-Decision "0" unless they name one; an empty
// value leaves the header out).
func hostileUpstream(t *testing.T, hdr map[string]string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderDecision, "0")
		for k, v := range hdr {
			w.Header().Set(k, v)
			if v == "" {
				w.Header().Del(k)
			}
		}
		w.Header().Set(HeaderHit, "origin")
		w.Write(make([]byte, 64)) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestWideNodeIDNotTruncated: model.NodeID is an int32, and the parsers used
// to convert through int — so 4294967297 became node 1 in a path entry and
// in a placement. It is malformed in both.
func TestWideNodeIDNotTruncated(t *testing.T) {
	if _, d, ok := parseDecision("0;2=1,4294967297=2.5"); ok {
		t.Errorf("parseDecision kept a wide ID: %+v", d)
	}
	// On the wire: a placement instruction for node 4294967297 is not one
	// for node 1, and a path naming it is refused and counted.
	n := NewNode(1, hostileUpstream(t, map[string]string{HeaderDecision: "0;4294967297=0"}), 1, 1<<20, 64, func() float64 { return 0 })
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
// node's ledger (RecordPrediction → +=) and leave
// cascade_ledger_predicted_gain NaN for the life of the process; a NaN or
// Inf path entry used to enter the DP. A non-finite term now fails its whole
// decision, and a non-finite path field its request.
func TestNonFiniteNumbersRefused(t *testing.T) {
	for _, v := range []string{"0;0=NaN", "0;1=+Inf", "0;2=-Inf", "NaN;3=0.5", "+Inf"} {
		if _, d, ok := parseDecision(v); ok {
			t.Errorf("parseDecision(%q) kept non-finite numbers: %+v", v, d)
		}
	}
	up := hostileUpstream(t, map[string]string{HeaderDecision: "0;0=NaN"})
	n := NewNode(0, up, 1, 1<<20, 64, func() float64 { return 0 })
	rec := httptest.NewRecorder()
	n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/5", nil))
	if rec.Code != http.StatusOK || n.inserts.Load() != 0 {
		t.Fatalf("status %d, %d inserts: want the answer relayed, unplaced", rec.Code, n.inserts.Load())
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

// TestOverCapDecisionListsRefused: the placement and tail lists of a
// decision are peer-supplied bytes (net/http admits a 10 MB response
// header, and the down step walks the tail under the node lock). One entry
// past maxPathEntries in either fails the whole decision, before the list
// is split; lists at the cap parse. (What a hop then does with the answer
// is TestHostileDecision's.)
func TestOverCapDecisionListsRefused(t *testing.T) {
	list := func(entry string, n int) string { return strings.TrimSuffix(strings.Repeat(entry+",", n), ",") }
	for name, mk := range map[string]func(n int) string{
		"place": func(n int) string { return "0;" + list("9=1", n) },
		"tail":  func(n int) string { return "0;9=1;1|" + list("1:2:3", n) },
	} {
		if _, d, ok := parseDecision(mk(maxPathEntries)); !ok || len(d.place)+len(d.inval) < maxPathEntries {
			t.Errorf("%s list of %d entries refused", name, maxPathEntries)
		}
		if _, _, ok := parseDecision(mk(maxPathEntries + 1)); ok {
			t.Errorf("%s list of %d entries accepted", name, maxPathEntries+1)
		}
	}
}

// TestHostileDecision is the one rule for a decision that cannot be used:
// whether it does not parse, lists more than maxPathEntries entries, or
// comes from a peer that speaks the retired per-field headers, the answer
// reaches the client whole, and no hop places a copy, books a claim or
// lands a tail. A malformed decision is counted once, at the first hop to
// read it: that hop sends only its own counter down. A well-formed
// decision, the control row, is placed and claimed at both hops.
func TestHostileDecision(t *testing.T) {
	const tail = ";5|5:9:3"
	// oldPeer sends the well-formed row's decision as a peer that speaks the
	// retired per-field headers does.
	oldPeer := map[string]string{HeaderDecision: ""}
	for field, v := range map[string]string{"Place": "0,1", "Predict": "0=1,1=1", "Penalty": "0", "Inval": "5|5:9:3"} {
		oldPeer["X-Cascade-"+field] = v
	}
	rows := []struct {
		name     string
		hdr      map[string]string
		bad      [2]int64 // cascade_gw_bad_header_total{header="decision"} at node 0, 1
		placed   bool
		decision string // what the client sees
	}{
		{"well-formed", map[string]string{HeaderDecision: "0;0=1,1=1" + tail}, [2]int64{0, 0}, true, "0;0=1,1=1" + tail},
		{"malformed", map[string]string{HeaderDecision: "0;0=1,1=1;5|x"}, [2]int64{0, 1}, false, "3"},
		{"over-long", map[string]string{HeaderDecision: "0;0=1,1=1" + strings.Repeat(",9=1", maxPathEntries-1) + tail}, [2]int64{0, 1}, false, "3"},
		{"old peer", oldPeer, [2]int64{0, 0}, false, "3"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			up := hostileUpstream(t, row.hdr)
			mid := NewNode(1, up, 2, 1<<20, 64, func() float64 { return 0 })
			mid.EnableCoherency(coherency.ModePSI)
			msrv := httptest.NewServer(mid)
			t.Cleanup(msrv.Close)
			edge := NewNode(0, msrv.URL, 1, 1<<20, 64, func() float64 { return 0 })
			edge.EnableCoherency(coherency.ModePSI)
			esrv := httptest.NewServer(edge)
			t.Cleanup(esrv.Close)
			resp, body := get(t, esrv.URL, 5)
			if resp.StatusCode != http.StatusOK || len(body) != 64 {
				t.Fatalf("status %d with %d bytes, want 200 with 64", resp.StatusCode, len(body))
			}
			if got := resp.Header.Get(HeaderDecision); got != row.decision {
				t.Errorf("client saw decision %q, want %q", got, row.decision)
			}
			for i, n := range []*Node{edge, mid} {
				acc := n.Ledger().Node(n.ID)
				if got := n.badDecision.Load(); got != row.bad[i] {
					t.Errorf("node %d counted %d bad decisions, want %d", n.ID, got, row.bad[i])
				}
				if n.Contains(5) != row.placed || (acc.Predictions == 1) != row.placed {
					t.Errorf("node %d: cached %v with %d claims, want cached %v", n.ID, n.Contains(5), acc.Predictions, row.placed)
				}
				if landed := n.CoherencyView().Floor(9) == 3; landed != row.placed {
					t.Errorf("node %d: tail landed %v, want %v", n.ID, landed, row.placed)
				}
			}
		})
	}
}

// TestMidHopForwardsDecision: a hop below the serving point parses the
// decision once and forwards it with only the counter rewritten — the
// placement, the terms and the tail go on byte for byte, even in a
// spelling this build would not produce — whether it places a copy (the
// counter resets) or passes the answer on (it adds its link cost).
func TestMidHopForwardsDecision(t *testing.T) {
	for _, tc := range []struct{ in, out string }{
		{"0.50;7=1.250,9=2;3|1:2:3", "2.5;7=1.250,9=2;3|1:2:3"},
		{"0.50;1=1.250,9=2;3|1:2:3", "0;1=1.250,9=2;3|1:2:3"},
		{"4;;0|", "6;;0|"},
		{"1", "3"},
	} {
		n := NewNode(1, hostileUpstream(t, map[string]string{HeaderDecision: tc.in}), 2, 1<<20, 64, func() float64 { return 0 })
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/5", nil))
		if got := rec.Header().Get(HeaderDecision); rec.Code != http.StatusOK || got != tc.out {
			t.Errorf("%q in: status %d, %q out; want %q", tc.in, rec.Code, got, tc.out)
		}
	}
}

// TestOldPeerAdvertIgnored pins mixed chains with builds that still carry
// the binary frame. Such a peer advertises "bf4" on X-Cascade-Accept but
// sends a frame only after seeing the advert come back; this build never
// advertises, so both sides stay on the textual headers — and every
// X-Cascade-* name this build puts on the wire is one of the eight Header*
// constants.
func TestOldPeerAdvertIgnored(t *testing.T) {
	known := map[string]bool{}
	for _, h := range []string{headerPath, HeaderDecision, HeaderHit, headerDegraded,
		HeaderSegment, HeaderSegmented, HeaderGen, headerTraceCtx} {
		known[http.CanonicalHeaderKey(h)] = true // the form net/http puts on the wire
	}
	if len(known) != 8 {
		t.Fatalf("%d protocol headers, want 8", len(known))
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
		if _, ok := resp.Header[HeaderDecision]; !ok {
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
	for _, h := range []string{headerPath, headerTraceCtx, HeaderDecision, HeaderHit, HeaderGen} {
		if !seen[http.CanonicalHeaderKey(h)] {
			t.Errorf("exchange never carried %s; the name check is vacuous for it", h)
		}
	}
}

// FuzzWireText feeds arbitrary strings to the decoders a peer reaches:
// parsePath and parseDecision. Neither may panic, and whatever they accept
// is bounded (≤ maxPathEntries per list), finite, within the node-ID range
// by construction of the types, and a fixed point of format → parse:
// re-encoding what was parsed and parsing that again yields the identical
// structs, and so does the form a hop forwards, its own counter in front
// of the bytes as they came.
func FuzzWireText(f *testing.F) {
	for _, p := range badPaths {
		f.Add(p, "")
	}
	for _, v := range badTails {
		f.Add("", "1;1=0.5;"+v)
	}
	f.Add("3;0.5;1.25;2, 4;-;-;1;9", "41;0=0.1,2=3.141592653589793,5=5e-324;9|8:17:3,9:1099511627776:18446744073709551615")
	f.Add("4294967297;1;1;0.1", "0;4294967297=2.5,0=NaN;5|")
	for _, v := range badDecisions {
		f.Add("", v)
	}
	f.Fuzz(func(t *testing.T, path, value string) {
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

		prev, d, ok := parseDecision(value)
		if !ok {
			return
		}
		if len(d.place) > maxPathEntries || len(d.inval) > maxPathEntries {
			t.Fatalf("accepted lists of %d/%d entries", len(d.place), len(d.inval))
		}
		finite(prev)
		for _, p := range d.place {
			finite(p.Term)
		}
		forwarded := http.Header{}
		writeDecision(forwarded, prev, d)
		re := d
		re.encode()
		d.rest = "" // the bytes as they came, compared by what they parse to
		for _, v := range []string{forwarded.Get(HeaderDecision), fmtFloat(prev) + re.rest} {
			p2, again, ok := parseDecision(v)
			again.rest = ""
			if !ok || p2 != prev || !reflect.DeepEqual(again, d) {
				t.Fatalf("decision not a fixed point:\n in %+v\nout %+v (%v)\nvia %q", d, again, ok, v)
			}
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
