package httpgw

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// Floats chosen to break any codec that round-trips through decimal with
// too little precision: non-terminating binary fractions, extremes of the
// exponent range, a subnormal, and negative zero.
var nastyFloats = []float64{
	0, 0.1, 1.0 / 3.0, math.Pi, 1e-300, 4.9e-324, math.MaxFloat64, math.Copysign(0, -1), 123456.789e-12,
}

func TestPathFrameRoundTrip(t *testing.T) {
	in := []engine.Candidate{
		{Node: 0, Tag: engine.TagCandidate, Freq: 0.1, CostLoss: 1.0 / 3.0, Link: math.Pi, Gen: 7},
		{Node: 7, Tag: engine.TagNoDescriptor, Link: 4.9e-324},
		{Node: 1<<31 - 1, Tag: engine.TagCandidate, Freq: math.MaxFloat64, CostLoss: 1e-300, Link: 0, Gen: math.MaxUint64},
	}
	ctx := span.Ctx{Trace: span.TraceID{Hi: 0xfeedface, Lo: 1}, Parent: 42}
	out, gotCtx, err := decodePathFrame(encodePathFrame(in, ctx))
	if err != nil {
		t.Fatal(err)
	}
	if gotCtx != ctx {
		t.Errorf("span context: got %+v want %+v", gotCtx, ctx)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d entries, want %d", len(out), len(in))
	}
	for i, e := range out {
		want := in[i]
		want.Hop = i // positional
		if e != want {
			t.Errorf("entry %d: got %+v want %+v", i, e, want)
		}
	}
	// An untraced requester ships the zero context, and the cannot-fit tag
	// collapses onto the excluded byte exactly as it does in text.
	out, gotCtx, err = decodePathFrame(encodePathFrame([]engine.Candidate{{Node: 3, Tag: engine.TagCannotFit, Freq: 9, Link: 2}}, span.Ctx{}))
	if err != nil || gotCtx.Valid() || len(out) != 1 || out[0] != (engine.Candidate{Node: 3, Tag: engine.TagNoDescriptor, Link: 2}) {
		t.Fatalf("untraced cannot-fit entry decoded to %+v ctx %+v err %v", out, gotCtx, err)
	}
}

// TestPathFrameMatchesTextualEncoding proves the encodings are lossless
// translations of each other: any candidate list encodes through text and
// through the frame to the same decoded value, bit for bit — generations
// included.
func TestPathFrameMatchesTextualEncoding(t *testing.T) {
	var in []engine.Candidate
	for i, f := range nastyFloats {
		c := engine.Candidate{Node: model.NodeID(i), Link: f}
		if i%2 == 0 {
			c.Tag = engine.TagCandidate
			c.Freq = nastyFloats[(i+1)%len(nastyFloats)]
			c.CostLoss = nastyFloats[(i+2)%len(nastyFloats)]
			c.Gen = uint64(i) * 3
		} else {
			c.Tag = engine.TagNoDescriptor
		}
		in = append(in, c)
	}
	parts := make([]string, len(in))
	for i, e := range in {
		parts[i] = formatEntry(e)
	}
	fromText, err := parsePath(joinComma(parts))
	if err != nil {
		t.Fatal(err)
	}
	fromFrame, _, err := decodePathFrame(encodePathFrame(in, span.Ctx{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText, fromFrame) {
		t.Fatalf("textual and binary decodes diverge:\ntext:  %+v\nframe: %+v", fromText, fromFrame)
	}
}

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

func TestDecisionFrameRoundTrip(t *testing.T) {
	in := decision{
		place:   []model.NodeID{0, 2, 5},
		predict: []predictTerm{{Node: 0, Term: 0.1}, {Node: 2, Term: math.Pi}, {Node: 5, Term: 4.9e-324}},
		gen:     41,
		invHead: 9,
		inval: []coherency.Invalidation{
			{Seq: 8, Obj: 17, Gen: 3},
			{Seq: 9, Obj: 1 << 40, Gen: math.MaxUint64},
		},
	}
	got, err := decodeDecisionFrame(encodeDecisionFrame(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, in)
	}

	// Empty decision: no placements, no predictions, no invalidations.
	got, err = decodeDecisionFrame(encodeDecisionFrame(decision{}))
	if err != nil || !reflect.DeepEqual(got, decision{}) {
		t.Fatalf("empty decision round trip: %+v err=%v", got, err)
	}
}

// TestDecisionTranslationByteIdentical re-encodes a decision parsed from one
// encoding into the other; all textual images must be identical byte
// strings (this is what lets relays re-encode instead of copying).
func TestDecisionTranslationByteIdentical(t *testing.T) {
	in := decision{
		place:   []model.NodeID{1, 3},
		predict: []predictTerm{{Node: 1, Term: 1.0 / 3.0}, {Node: 3, Term: 123456.789e-12}},
		gen:     12,
		invHead: 4,
		inval:   []coherency.Invalidation{{Seq: 4, Obj: 99, Gen: 12}},
	}

	textHeader := http.Header{}
	writeDecision(textHeader, false, in)
	frameHeader := http.Header{}
	writeDecision(frameHeader, true, in)
	// The frame carries everything — coherency payload included — and the
	// encodings never leak into each other's headers.
	if textHeader.Get(HeaderFrame) != "" || len(frameHeader) != 1 {
		t.Fatalf("encodings leaked into each other's headers: text %v frame %v", textHeader, frameHeader)
	}

	for name, h := range map[string]http.Header{"text": textHeader, "frame": frameHeader} {
		d, err := parseDecision(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(d, in) {
			t.Fatalf("%s decode diverged:\ngot  %+v\nwant %+v", name, d, in)
		}
		re := http.Header{}
		writeDecision(re, false, d)
		if !reflect.DeepEqual(re, textHeader) {
			t.Fatalf("%s re-encode not byte-identical: %v vs %v", name, re, textHeader)
		}
		writeDecision(re, true, d)
		if re.Get(HeaderFrame) != frameHeader.Get(HeaderFrame) {
			t.Fatalf("%s re-encode to a frame not byte-identical", name)
		}
	}
}

// TestInvalHeaderMalformed pins the explicit bad-header policy: a garbled
// X-Cascade-Gen zero-defaults and a garbled X-Cascade-Inval drops the whole
// batch, each flagged for the gateway's counters; the placement decision
// itself still parses.
func TestInvalHeaderMalformed(t *testing.T) {
	h := http.Header{}
	h.Set(HeaderPlace, "1")
	h.Set(HeaderGen, "banana")
	h.Set(HeaderInval, "7|1:2:3,garbled")
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
}

// frameSeeds are the round-trip cases as raw (pre-base64) frame bytes: the
// malformed-input table mutates them and FuzzDecodeFrame starts from them.
func frameSeeds(t testing.TB) (path, dec []byte) {
	t.Helper()
	raw := func(h string) []byte {
		b, err := base64.RawStdEncoding.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	path = raw(encodePathFrame([]engine.Candidate{
		{Node: 0, Tag: engine.TagCandidate, Freq: 0.1, CostLoss: 1.0 / 3.0, Link: math.Pi, Gen: 7},
		{Node: 7, Tag: engine.TagNoDescriptor, Link: 4.9e-324},
	}, span.Ctx{Trace: span.TraceID{Hi: 5, Lo: 6}, Parent: 7}))
	dec = raw(encodeDecisionFrame(decision{
		place:   []model.NodeID{0, 2},
		predict: []predictTerm{{Node: 0, Term: 0.1}, {Node: 2, Term: math.Pi}},
		gen:     41,
		invHead: 9,
		inval:   []coherency.Invalidation{{Seq: 8, Obj: 17, Gen: 3}},
	}))
	return path, dec
}

// TestFrameDecodeRejectsGarbage is the malformed-input table: every way a
// frame can depart from the one layout the encoders emit must be an error
// from both decoders, never a partial result.
func TestFrameDecodeRejectsGarbage(t *testing.T) {
	b64 := base64.RawStdEncoding.EncodeToString
	path, dec := frameSeeds(t)
	mutate := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	// Offsets into the seed path frame: count at 4, first candidate at 30,
	// its tag at 34; the second (excluded) candidate's freq bits at 72.
	const countOff, tagOff, excludedFreqOff = frameHeaderLen, frameHeaderLen + 2 + frameCtxLen + 4, frameHeaderLen + 2 + frameCtxLen + frameCandidateLen + 5
	bad := map[string][]byte{
		"empty":               nil,
		"short":               []byte("ABC"),
		"bad magic":           mutate(path, func(b []byte) { b[0] = 'X' }),
		"version 0":           mutate(path, func(b []byte) { b[2] = 0 }),
		"retired version 1":   mutate(path, func(b []byte) { b[2] = 1 }),
		"retired version 2":   mutate(path, func(b []byte) { b[2] = 2 }),
		"retired version 3":   mutate(path, func(b []byte) { b[2] = 3 }),
		"future version":      mutate(path, func(b []byte) { b[2] = 200 }),
		"unknown kind":        mutate(path, func(b []byte) { b[3] = 9 }),
		"trailing byte":       append(append([]byte(nil), path...), 0),
		"unknown tag":         mutate(path, func(b []byte) { b[tagOff] = 2 }),
		"excluded + payload":  mutate(path, func(b []byte) { b[excludedFreqOff] = 1 }),
		"count over cap":      mutate(path, func(b []byte) { binary.LittleEndian.PutUint16(b[countOff:], maxPathEntries+1) }),
		"count over payload":  mutate(path, func(b []byte) { binary.LittleEndian.PutUint16(b[countOff:], 3) }),
		"count under payload": mutate(path, func(b []byte) { binary.LittleEndian.PutUint16(b[countOff:], 1) }),
	}
	for cut := 0; cut < len(path); cut++ {
		bad[fmt.Sprintf("path cut at %d", cut)] = path[:cut]
	}
	for name, raw := range bad {
		if out, ctx, err := decodePathFrame(b64(raw)); err == nil || out != nil || ctx.Valid() {
			t.Errorf("decodePathFrame(%s) = %v, %+v, %v; want an error and nothing else", name, out, ctx, err)
		}
	}
	for _, h := range []string{"not-base64!!!", b64(dec)} {
		if _, _, err := decodePathFrame(h); err == nil {
			t.Errorf("decodePathFrame(%q) accepted garbage", h)
		}
	}

	// Decision frames: place count at 4, predict count at 14, inval count
	// at 56 in the seed.
	bad = map[string][]byte{
		"path frame":          path,
		"retired version 3":   mutate(dec, func(b []byte) { b[2] = 3 }),
		"trailing byte":       append(append([]byte(nil), dec...), 0),
		"place over cap":      mutate(dec, func(b []byte) { binary.LittleEndian.PutUint16(b[4:], maxPathEntries+1) }),
		"predict over cap":    mutate(dec, func(b []byte) { binary.LittleEndian.PutUint16(b[14:], maxPathEntries+1) }),
		"inval over cap":      mutate(dec, func(b []byte) { binary.LittleEndian.PutUint16(b[56:], maxPathEntries+1) }),
		"inval under payload": mutate(dec, func(b []byte) { binary.LittleEndian.PutUint16(b[56:], 0) }),
	}
	for cut := 0; cut < len(dec); cut++ {
		bad[fmt.Sprintf("decision cut at %d", cut)] = dec[:cut]
	}
	for name, raw := range bad {
		if d, err := decodeDecisionFrame(b64(raw)); err == nil || !reflect.DeepEqual(d, decision{}) {
			t.Errorf("decodeDecisionFrame(%s) = %+v, %v; want an error and nothing else", name, d, err)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to both decoders, as a raw frame and
// as the header string itself: neither may panic, and any frame one of them
// accepts must re-encode to the very bytes it was decoded from — the
// decoders admit exactly the encoders' image, nothing looser.
func FuzzDecodeFrame(f *testing.F) {
	path, dec := frameSeeds(f)
	f.Add(path)
	f.Add(dec)
	f.Add([]byte("Q0YEAQ"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		decodePathFrame(string(raw))     //nolint:errcheck
		decodeDecisionFrame(string(raw)) //nolint:errcheck
		h := base64.RawStdEncoding.EncodeToString(raw)
		if entries, ctx, err := decodePathFrame(h); err == nil {
			if len(entries) > maxPathEntries {
				t.Fatalf("accepted %d path entries", len(entries))
			}
			if re := encodePathFrame(entries, ctx); re != h {
				t.Fatalf("path frame re-encodes differently:\n in %s\nout %s", h, re)
			}
		}
		if d, err := decodeDecisionFrame(h); err == nil {
			if re := encodeDecisionFrame(d); re != h {
				t.Fatalf("decision frame re-encodes differently:\n in %s\nout %s", h, re)
			}
		}
	})
}

// TestFramingNegotiation drives a two-node chain and watches the wire: the
// first upstream exchange must be textual (nothing learned yet), every
// later one binary; a node with DisableBinaryFraming stays textual forever
// and never advertises; an advertising client gets back a frame; and a peer
// advertising any token but this build's — none, or one of the retired
// layouts' — is spoken to in text, in both directions.
func TestFramingNegotiation(t *testing.T) {
	o := &Origin{Size: func(model.ObjectID) int { return 64 }}
	origin := httptest.NewServer(o)
	defer origin.Close()

	n1 := NewNode(1, origin.URL, 2, 1<<20, 64, func() float64 { return 0 })
	// spy records, per upstream request n0 sends to n1, whether it carried a
	// binary path frame; upAdvert, when set, overwrites the advert n0 sees
	// on n1's responses (a peer from another build).
	var sawFrame []bool
	upAdvert := ""
	spy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawFrame = append(sawFrame, r.Header.Get(HeaderFrame) != "")
		if upAdvert != "" {
			// Answer as that build would: its own advert, and text — it
			// does not read this build's advert either.
			r.Header.Del(HeaderAccept)
			w = advertOverride{w, upAdvert}
		}
		n1.ServeHTTP(w, r)
	}))
	defer spy.Close()

	n0 := NewNode(0, spy.URL, 1, 1<<20, 64, func() float64 { return 0 })
	front := httptest.NewServer(n0)
	defer front.Close()

	get := func(base string, obj int) *http.Response {
		resp, err := http.Get(base + "/objects/" + strconv.Itoa(obj))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %d: status %d", obj, resp.StatusCode)
		}
		return resp
	}

	r0 := get(front.URL, 100)
	get(front.URL, 101)
	get(front.URL, 102)
	if len(sawFrame) != 3 {
		t.Fatalf("expected 3 upstream exchanges, saw %d", len(sawFrame))
	}
	if sawFrame[0] {
		t.Error("first exchange was binary before any advert arrived")
	}
	if !sawFrame[1] || !sawFrame[2] {
		t.Errorf("later exchanges stayed textual after the upstream advertised: %v", sawFrame)
	}
	// The client never advertised, so the client-facing response is textual
	// with the advert attached.
	if r0.Header.Get(HeaderFrame) != "" {
		t.Error("client-facing response carried a binary frame without the client advertising")
	}
	if r0.Header.Get(HeaderAccept) != FrameToken {
		t.Error("capable node did not advertise the frame token on its response")
	}

	// A textual-only node never upgrades, whatever the upstream says.
	sawFrame = nil
	n0text := NewNode(0, spy.URL, 1, 1<<20, 64, func() float64 { return 0 })
	n0text.DisableBinaryFraming = true
	frontText := httptest.NewServer(n0text)
	defer frontText.Close()
	for i := 0; i < 3; i++ {
		if resp := get(frontText.URL, 200+i); resp.Header.Get(HeaderAccept) != "" {
			t.Error("textual-only node advertised frame support")
		}
	}
	for i, b := range sawFrame {
		if b {
			t.Errorf("textual-only node sent a binary frame on exchange %d", i)
		}
	}

	// An upstream from a build with a retired layout advertises a token this
	// build does not know: the node keeps speaking text to it, and the
	// chain keeps serving.
	sawFrame, upAdvert = nil, "bf3"
	n0old := NewNode(0, spy.URL, 1, 1<<20, 64, func() float64 { return 0 })
	frontOld := httptest.NewServer(n0old)
	defer frontOld.Close()
	for i := 0; i < 3; i++ {
		get(frontOld.URL, 300+i)
	}
	for i, b := range sawFrame {
		if b {
			t.Errorf("node sent a frame to an upstream advertising %q (exchange %d)", upAdvert, i)
		}
	}

	// A client that advertises this build's token gets a binary decision
	// frame back; one advertising a retired token gets text.
	for _, tok := range []string{FrameToken, "bf1", "bf2", "bf3", "bf5"} {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/objects/100", nil)
		req.Header.Set(HeaderAccept, tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		f := resp.Header.Get(HeaderFrame)
		if tok != FrameToken {
			if _, hasPlace := resp.Header[HeaderPlace]; f != "" || !hasPlace {
				t.Errorf("client advertising %q was not answered in text (frame %q)", tok, f)
			}
			continue
		}
		if f == "" {
			t.Fatal("advertising client did not receive a binary decision frame")
		}
		if _, err := decodeDecisionFrame(f); err != nil {
			t.Fatalf("binary decision frame unparseable: %v", err)
		}
	}
}

// advertOverride rewrites the X-Cascade-Accept advert on a response as it
// is written, impersonating a peer from another build.
type advertOverride struct {
	http.ResponseWriter
	advert string
}

func (a advertOverride) WriteHeader(code int) {
	a.Header().Set(HeaderAccept, a.advert)
	a.ResponseWriter.WriteHeader(code)
}

func (a advertOverride) Write(b []byte) (int, error) {
	a.Header().Set(HeaderAccept, a.advert)
	return a.ResponseWriter.Write(b)
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
// it, in either encoding.
func TestOversizedPathRefused(t *testing.T) {
	o := &Origin{Size: func(model.ObjectID) int { return 64 }}
	o.EnableObservability(8, nil)
	n := NewNode(0, "http://unreachable.invalid", 1, 1<<20, 64, func() float64 { return 0 })
	long := strings.Repeat("1;1;0;1,", 119999) + "1;1;0;1"
	over := make([]engine.Candidate, maxPathEntries+1)

	for name, h := range map[string]http.Handler{"node": n, "origin": o} {
		for enc, set := range map[string]func(http.Header){
			"text":  func(hd http.Header) { hd.Set(HeaderPath, long) },
			"frame": func(hd http.Header) { hd.Set(HeaderFrame, encodePathFrame(over, span.Ctx{})) },
		} {
			req := httptest.NewRequest(http.MethodGet, "/objects/1", nil)
			set(req.Header)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			if took := time.Since(start); rec.Code != http.StatusBadRequest || took > 50*time.Millisecond {
				t.Errorf("%s, %s path: status %d after %s, want 400 within 50ms", name, enc, rec.Code, took)
			}
		}
	}
	if got := scrapeCounter(t, n, `cascade_gw_bad_header_total{header="path",node="0"}`); got != "2" {
		t.Errorf("node counted %s bad paths, want 2", got)
	}
	if got := scrapeCounter(t, o, `cascade_gw_bad_header_total{header="path",node="origin"}`); got != "2" {
		t.Errorf("origin counted %s bad paths, want 2", got)
	}
	if n.misses != 0 {
		t.Errorf("refused requests still took %d protocol steps", n.misses)
	}
	// The bound itself is generous: a path at the cap is served.
	atCap := make([]engine.Candidate, maxPathEntries)
	for i := range atCap {
		atCap[i] = engine.Candidate{Node: model.NodeID(i + 1), Tag: engine.TagNoDescriptor, Link: 1}
	}
	req := httptest.NewRequest(http.MethodGet, "/objects/1", nil)
	req.Header.Set(HeaderFrame, encodePathFrame(atCap, span.Ctx{}))
	rec := httptest.NewRecorder()
	o.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("path of exactly %d entries refused with %d", maxPathEntries, rec.Code)
	}
}

// TestGarbageFrameJoinsNoTrace closes the span-poisoning hole: a blob whose
// fourth byte says "path frame" used to have its bytes 6–30 adopted as a
// span context before the decoder looked at magic or version, so a frame
// answered 400 had already joined an attacker-chosen trace ID into the
// node's ring. The context is now read only out of a frame that decoded.
func TestGarbageFrameJoinsNoTrace(t *testing.T) {
	n := NewNode(0, "http://unreachable.invalid", 1, 1<<20, 64, func() float64 { return 0 })
	n.EnableSpans(span.Policy{Rate: 1}, 16)
	good, _ := frameSeeds(t)
	for name, raw := range map[string][]byte{
		"version 200": append([]byte{'C', 'F', 200}, good[3:]...),
		"no magic":    append([]byte{'x', 'y', frameVersion}, good[3:]...),
		"trailing":    append(append([]byte(nil), good...), 0),
	} {
		req := httptest.NewRequest(http.MethodGet, "/objects/1", nil)
		req.Header.Set(HeaderFrame, base64.RawStdEncoding.EncodeToString(raw))
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	if spans := n.DumpSpans().Spans; len(spans) != 0 {
		t.Errorf("rejected frames left %d spans in the ring: %+v", len(spans), spans)
	}
	if got := scrapeCounter(t, n, `cascade_gw_bad_header_total{header="path",node="0"}`); got != "3" {
		t.Errorf("counted %s bad paths, want 3", got)
	}
}
