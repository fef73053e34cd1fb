package httpgw

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// Binary wire framing.
//
// The textual headers spell every float through strconv on each hop — parse,
// re-format, re-parse — which is the dominant per-hop cost once the cache
// math itself is sharded. The binary frame carries the protocol's two
// messages (paper §2.3–2.4) — the upstream path (one candidate per hop) and
// the downstream decision (placement set, predicted Δcost terms, coherency
// payload) — as fixed-width little-endian integers and raw IEEE-754 bit
// patterns, base64-encoded on a single X-Cascade-Frame header. Both encodings
// are bit-exact for every float (the textual side uses strconv 'g'/-1, the
// shortest round-tripping form), so a chain may mix them freely: the
// conformance suite proves serving and placement decisions are identical
// whichever encoding each hop speaks.
//
// There is one layout and one capability token. A binary-capable hop
// advertises FrameToken on X-Cascade-Accept in both directions: on its
// requests (the upstream may answer with a frame) and on its responses (the
// downstream may send frames next time). A node emits a request frame only
// after it has seen the upstream's advert, so the first exchange of any pair
// runs textual — and so does every exchange with a peer that advertises
// nothing or a token this build does not know: builds that spoke the retired
// bf1–bf3 layouts see an unknown advert and stay on text instead of
// mis-parsing, which is why the token and the version byte are ones no
// earlier build used.
//
// Frame layout (all multi-byte values little-endian):
//
//	offset  size  value
//	0       2     magic "CF"
//	2       1     version (4)
//	3       1     kind: 1 = path, 2 = decision
//
// kind 1 (path):
//
//	u16  candidate count
//	u64  span trace ID, high half  ┐ the requester's span context; all
//	u64  span trace ID, low half   │ zero when it runs no tracing
//	u64  parent span ID            ┘
//	then per candidate, 37 bytes:
//	u32  node ID
//	u8   tag: 0 = candidate, 1 = excluded (§2.4 no-descriptor; the
//	     cannot-fit tag collapses here exactly as it does in text)
//	f64  frequency estimate (bits; zero when excluded)
//	f64  eviction cost loss (bits; zero when excluded)
//	f64  cost of the link just crossed (bits)
//	u64  coherency generation of the node's last copy
//
// kind 2 (decision):
//
//	u16  placement count, then u32 node IDs (ascending)
//	u16  prediction count, then (u32 node, f64 term) pairs (ascending)
//	u64  served generation
//	u64  invalidation-log head
//	u16  invalidation count, then (u64 seq, u64 obj, u64 gen) entries
//
// Decoding is strict: a frame is accepted only in the exact form the
// encoders emit (known tag bytes, zeroed payload on excluded candidates,
// every count within maxPathEntries, no bytes after the payload), so an
// accepted frame re-encodes byte-identically. See docs/PERFORMANCE.md for a
// worked byte example and docs/PROTOCOL.md for the header table.
const (
	// HeaderFrame carries one base64 (raw, unpadded) binary frame.
	HeaderFrame = "X-Cascade-Frame"
	// HeaderAccept advertises frame support hop-by-hop.
	HeaderAccept = "X-Cascade-Accept"
	// FrameToken is the capability token of the one frame layout.
	FrameToken = "bf4"
)

const (
	frameMagic0, frameMagic1 = 'C', 'F'
	frameVersion             = 4
	framePath                = 1
	frameDecision            = 2
	frameHeaderLen           = 4
	frameCtxLen              = 8 + 8 + 8 // trace hi, trace lo, parent span
	frameCandidateLen        = 4 + 1 + 8 + 8 + 8 + 8
	frameInvalLen            = 8 + 8 + 8
)

// maxPathEntries bounds every count a peer can put on the wire: hop
// candidates in either path encoding, and a decision frame's placement,
// prediction and invalidation lists. The §2.2 DP is quadratic in the
// candidate count and decoders allocate and loop by the counts they read,
// so an unbounded count lets one request header pin a handler for seconds.
// Routes internal/topology generates are a dozen hops at most and the
// invalidation tail is coherency.TailK (32) entries; 256 is far above both.
const maxPathEntries = 256

// predictTerm pairs a chosen node with the DP's predicted Δcost term for
// its placement — the structured form of one HeaderPredict entry.
type predictTerm struct {
	Node model.NodeID
	Term float64
}

// decision is one parsed placement decision: the §2.2 DP's output plus the
// coherency payloads that ride beside it.
type decision struct {
	place   []model.NodeID
	predict []predictTerm
	// gen is the served copy's coherency generation (X-Cascade-Gen or the
	// frame); zero when the serving side runs no coherency.
	gen uint64
	// invHead and inval are the origin's invalidation-log head and recent
	// tail (X-Cascade-Inval or the frame), applied at every hop before its
	// DownStep so a same-response placement at the pre-write generation
	// is caught by the freshly raised floor.
	invHead uint64
	inval   []coherency.Invalidation
	// badGen / badInval report malformed textual coherency headers:
	// zero-defaulted (gen) or dropped (inval) explicitly, counted by the
	// caller in cascade_gw_bad_header_total.
	badGen, badInval bool
}

func putU16(b []byte, v int) []byte { return binary.LittleEndian.AppendUint16(b, uint16(v)) }
func putU32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// encodePathFrame renders hop candidates (wire order: the client's first
// cache first) as a base64 path frame. Hop indices are not encoded — the
// receiver assigns them positionally, exactly as parsePath does. ctx is the
// requester's span trace context (zero when it runs no tracing).
func encodePathFrame(entries []engine.Candidate, ctx span.Ctx) string {
	b := make([]byte, 0, frameHeaderLen+2+frameCtxLen+len(entries)*frameCandidateLen)
	b = append(b, frameMagic0, frameMagic1, frameVersion, framePath)
	b = putU16(b, len(entries))
	b = putU64(b, ctx.Trace.Hi)
	b = putU64(b, ctx.Trace.Lo)
	b = putU64(b, uint64(ctx.Parent))
	for _, e := range entries {
		b = putU32(b, int32(e.Node))
		if e.Tag == engine.TagCandidate {
			b = append(b, 0)
			b = putF64(b, e.Freq)
			b = putF64(b, e.CostLoss)
		} else {
			b = append(b, 1)
			b = putF64(b, 0)
			b = putF64(b, 0)
		}
		b = putF64(b, e.Link)
		b = putU64(b, e.Gen)
	}
	return base64.RawStdEncoding.EncodeToString(b)
}

// encodeDecisionFrame renders a placement decision (chosen node IDs
// ascending, predicted terms ascending by node) and its coherency payload as
// a base64 decision frame.
func encodeDecisionFrame(d decision) string {
	b := make([]byte, 0, frameHeaderLen+2+4*len(d.place)+2+12*len(d.predict)+8+8+2+frameInvalLen*len(d.inval))
	b = append(b, frameMagic0, frameMagic1, frameVersion, frameDecision)
	b = putU16(b, len(d.place))
	for _, id := range d.place {
		b = putU32(b, int32(id))
	}
	b = putU16(b, len(d.predict))
	for _, p := range d.predict {
		b = putU32(b, int32(p.Node))
		b = putF64(b, p.Term)
	}
	b = putU64(b, d.gen)
	b = putU64(b, d.invHead)
	b = putU16(b, len(d.inval))
	for _, inv := range d.inval {
		b = putU64(b, inv.Seq)
		b = putU64(b, uint64(inv.Obj))
		b = putU64(b, inv.Gen)
	}
	return base64.RawStdEncoding.EncodeToString(b)
}

// frameReader walks a decoded frame. The first failure — a short read, an
// over-cap count, a bad byte — sticks in err and every later read yields
// zero, so a decoder reads straight through the layout and checks once, in
// end.
type frameReader struct {
	b   []byte
	off int
	err error
}

var frameZeros [8]byte

// take returns the next n (≤ 8) bytes of the frame.
func (r *frameReader) take(n int) []byte {
	if r.err == nil && len(r.b)-r.off < n {
		r.err = fmt.Errorf("httpgw: truncated frame (want %d bytes at %d of %d)", n, r.off, len(r.b))
	}
	if r.err != nil {
		return frameZeros[:n]
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *frameReader) u32() int32  { return int32(binary.LittleEndian.Uint32(r.take(4))) }
func (r *frameReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// count reads a u16 element count and holds it to maxPathEntries before the
// caller allocates or loops by it.
func (r *frameReader) count() int {
	n := int(binary.LittleEndian.Uint16(r.take(2)))
	if r.err == nil && n > maxPathEntries {
		r.err = fmt.Errorf("httpgw: frame count %d exceeds %d", n, maxPathEntries)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// end closes the read: the first failure, or bytes left over after the
// payload.
func (r *frameReader) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("httpgw: %d trailing bytes after frame payload", len(r.b)-r.off)
	}
	return r.err
}

// openFrame decodes the base64 envelope and checks magic, version and kind —
// the one place the version byte is compared — returning a reader positioned
// after the frame header (or already failed).
func openFrame(h string, kind byte) frameReader {
	raw, err := base64.RawStdEncoding.DecodeString(h)
	switch {
	case err != nil:
		err = fmt.Errorf("httpgw: bad frame base64: %w", err)
	case len(raw) < frameHeaderLen || raw[0] != frameMagic0 || raw[1] != frameMagic1:
		err = fmt.Errorf("httpgw: bad frame magic")
	case raw[2] != frameVersion:
		err = fmt.Errorf("httpgw: unsupported frame version %d", raw[2])
	case raw[3] != kind:
		err = fmt.Errorf("httpgw: frame kind %d where kind %d expected", raw[3], kind)
	}
	return frameReader{b: raw, off: frameHeaderLen, err: err}
}

// decodePathFrame parses a path frame into hop candidates (hop indices
// assigned positionally) and the requester's span context. The context is
// returned only with a fully valid frame, so a rejected frame can never plant
// a trace ID in the receiver's span ring.
func decodePathFrame(h string) ([]engine.Candidate, span.Ctx, error) {
	r := openFrame(h, framePath)
	count := r.count()
	ctx := span.Ctx{Trace: span.TraceID{Hi: r.u64(), Lo: r.u64()}, Parent: span.SpanID(r.u64())}
	out := make([]engine.Candidate, 0, count)
	for i := 0; i < count && r.err == nil; i++ {
		e := engine.Candidate{Hop: i, Node: model.NodeID(r.u32())}
		tag, freq, loss := r.take(1)[0], r.u64(), r.u64()
		switch {
		case tag == 0:
			e.Tag = engine.TagCandidate
			e.Freq, e.CostLoss = math.Float64frombits(freq), math.Float64frombits(loss)
		case tag == 1 && freq == 0 && loss == 0:
			e.Tag = engine.TagNoDescriptor
		case tag == 1:
			r.err = fmt.Errorf("httpgw: excluded path entry %d carries a payload", i)
		default:
			r.err = fmt.Errorf("httpgw: unknown tag %d on path entry %d", tag, i)
		}
		e.Link = math.Float64frombits(r.u64())
		e.Gen = r.u64()
		out = append(out, e)
	}
	if err := r.end(); err != nil {
		return nil, span.Ctx{}, err
	}
	return out, ctx, nil
}

// decodeDecisionFrame parses a decision frame.
func decodeDecisionFrame(h string) (decision, error) {
	r := openFrame(h, frameDecision)
	var d decision
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		d.place = append(d.place, model.NodeID(r.u32()))
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		d.predict = append(d.predict, predictTerm{Node: model.NodeID(r.u32()), Term: math.Float64frombits(r.u64())})
	}
	d.gen, d.invHead = r.u64(), r.u64()
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		d.inval = append(d.inval, coherency.Invalidation{Seq: r.u64(), Obj: model.ObjectID(r.u64()), Gen: r.u64()})
	}
	if err := r.end(); err != nil {
		return decision{}, err
	}
	return d, nil
}

// acceptsFrames reports whether the peer that sent these headers advertised
// the frame layout this build speaks. Any other advert — none, or a token
// from another build — means text.
func acceptsFrames(h http.Header) bool { return h.Get(HeaderAccept) == FrameToken }

// parseIncomingPath reads the request's hop candidates and the downstream
// hop's span context (zero: it runs no tracing) from whichever encoding the
// downstream used: a path frame carries both; the textual X-Cascade-Path
// has X-Cascade-TraceCtx beside it.
func parseIncomingPath(h http.Header) ([]engine.Candidate, span.Ctx, error) {
	if f := h.Get(HeaderFrame); f != "" {
		return decodePathFrame(f)
	}
	entries, err := parsePath(h.Get(HeaderPath))
	if err != nil {
		return nil, span.Ctx{}, err
	}
	ctx, _ := span.ParseCtx(h.Get(HeaderTraceCtx))
	return entries, ctx, nil
}

// writePath emits hop candidates upstream as a frame (framed) or as the
// textual headers. ctx is the requester's span trace context (zero: no
// tracing): a frame carries it inline, the textual encoding on the
// X-Cascade-TraceCtx header, so tracing survives mixed chains.
func writePath(h http.Header, framed bool, entries []engine.Candidate, ctx span.Ctx) {
	if framed {
		h.Set(HeaderFrame, encodePathFrame(entries, ctx))
		return
	}
	if ctx.Valid() {
		h.Set(HeaderTraceCtx, ctx.String())
	}
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = formatEntry(e)
	}
	h.Set(HeaderPath, joinComma(parts))
}

// parseDecision reads a response's placement decision from whichever
// encoding the upstream used. The placement set comes back in wire order
// (ascending — both encoders sort) and the predictions keep their
// ascending-node order, so re-encoding either way is byte-identical. The
// coherency payload rides inside a frame and on the textual X-Cascade-Gen /
// X-Cascade-Inval headers otherwise.
func parseDecision(h http.Header) (decision, error) {
	if f := h.Get(HeaderFrame); f != "" {
		return decodeDecisionFrame(f)
	}
	d := decision{
		place:   parsePlacementList(h.Get(HeaderPlace)),
		predict: parsePredictTerms(h.Get(HeaderPredict)),
	}
	var ok bool
	if d.gen, ok = parseGen(h.Get(HeaderGen)); !ok {
		d.badGen = true
	}
	if v := h.Get(HeaderInval); v != "" {
		if head, tail, ok := parseInval(v); ok {
			d.invHead, d.inval = head, tail
		} else {
			d.badInval = true
		}
	}
	return d, nil
}

// writeDecision emits a placement decision downstream in the encoding that
// side negotiated: one frame, or the textual decision and coherency headers.
func writeDecision(h http.Header, framed bool, d decision) {
	if framed {
		h.Set(HeaderFrame, encodeDecisionFrame(d))
		return
	}
	h.Set(HeaderPlace, formatPlacement(d.place))
	if len(d.predict) > 0 {
		h.Set(HeaderPredict, formatPredictTerms(d.predict))
	}
	if d.gen != 0 {
		h.Set(HeaderGen, strconv.FormatUint(d.gen, 10))
	}
	if len(d.inval) > 0 || d.invHead != 0 {
		h.Set(HeaderInval, formatInval(d.invHead, d.inval))
	}
}

// placed reports whether id is in the (short, ascending) placement set.
func placed(place []model.NodeID, id model.NodeID) bool {
	for _, p := range place {
		if p == id {
			return true
		}
	}
	return false
}

// predictFor returns id's predicted Δcost term, if the decision shipped one.
func predictFor(predict []predictTerm, id model.NodeID) (float64, bool) {
	for _, p := range predict {
		if p.Node == id {
			return p.Term, true
		}
	}
	return 0, false
}
