package httpgw

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// The gateway's data plane: response bodies stream through pooled buffers
// on relay hops, NCL evictions spill payloads to a disk tier instead of
// dropping them, and over-threshold objects travel as fixed-size Range
// segments, each a first-class object to the placement decision. The
// descriptor-plane protocol (the path and decision headers) is untouched —
// segments simply have their own object identity (store.SegmentID), so
// every existing invariant applies per segment. Only freshness is the base
// object's: a segment carries its base's generation, is validated against
// its base's floor, and is reassembled with siblings of that one generation
// or not at all (serveSegmented).

// EnableSpill attaches a disk-backed second tier to the node's body store:
// NCL evictions spill their payload to per-object CRC-checked files under
// dir instead of dropping it, and a later request for a spilled object is
// served from disk (and promoted back to memory) without an upstream
// fetch. maxBytes bounds the tier (0 = unbounded); ttl expires disk copies
// after that many Clock seconds (0 = never). Call before serving, after
// EnableCoherency: with a validating view attached the tier gets the
// node's generation floor as its MinGen oracle, so spill files written
// before an invalidation are rejected at read and at startup adoption — a
// crashed node's disk can never resurrect a stale body.
func (n *Node) EnableSpill(dir string, maxBytes int64, ttl float64) error {
	cfg := store.Config{Dir: dir, DiskBytes: maxBytes, DiskTTL: ttl, Clock: n.Clock}
	if v := n.view; v != nil && v.Mode().Validates() {
		cfg.MinGen = v.Floor
	}
	t, err := store.NewTiered(cfg)
	if err != nil {
		return err
	}
	n.bodies = t
	return nil
}

// SpillContains reports whether the object's bytes sit in the disk spill
// tier (and only there).
func (n *Node) SpillContains(obj model.ObjectID) bool {
	return n.bodies.Contains(obj) == store.SrcDisk
}

// BodyStats returns the node's data-plane accounting snapshot.
func (n *Node) BodyStats() store.Stats { return n.bodies.Stats() }

// CheckBytes reports a disagreement between the node's bytes and its
// descriptors (engine.Hop.CheckBytes). For tests: quiesce the node first.
func (n *Node) CheckBytes() error { return n.hop().CheckBytes() }

// segInfo is a parsed X-Cascade-Segment request header: this request asks
// for segment idx of a large object split into size-byte segments.
type segInfo struct {
	on   bool
	idx  int
	size int64
}

// lo is the segment's first byte. parseSegmentRequest bounds idx and size
// so that the product cannot overflow.
func (s segInfo) lo() int64 { return int64(s.idx) * s.size }

// header renders the wire form "idx;segsize".
func (s segInfo) header() string {
	return strconv.Itoa(s.idx) + ";" + strconv.FormatInt(s.size, 10)
}

// parseSegmentRequest decodes the X-Cascade-Segment header ("idx;segsize").
// An index past store.MaxSegments, or a size at which that many segments
// would not fit in an int64, is malformed: no object this cascade serves has
// such a segment, and lo() would overflow for it.
func parseSegmentRequest(h http.Header) (segInfo, error) {
	v := h.Get(HeaderSegment)
	if v == "" {
		return segInfo{}, nil
	}
	semi := strings.IndexByte(v, ';')
	if semi < 0 {
		return segInfo{}, fmt.Errorf("httpgw: bad segment header %q", v)
	}
	idx, err1 := strconv.Atoi(v[:semi])
	size, err2 := strconv.ParseInt(v[semi+1:], 10, 64)
	if err1 != nil || err2 != nil || idx < 0 || idx >= store.MaxSegments ||
		size <= 0 || size > math.MaxInt64/store.MaxSegments {
		return segInfo{}, fmt.Errorf("httpgw: bad segment header %q", v)
	}
	return segInfo{on: true, idx: idx, size: size}, nil
}

// forwardSegment copies a segment request's identity onto the request a hop
// sends upstream for it: the segment header and the original Range, so every
// hop (and the origin) derives the same store.SegmentID, and the generation
// its reassembly pinned — verbatim, never raised to the hop's own floor: a
// pin is exact, and a hop that knows better drops its copy rather than
// rewrite what the asker is assembling.
func forwardSegment(up, from http.Header) {
	up.Set(HeaderSegment, from.Get(HeaderSegment))
	up.Set("Range", from.Get("Range"))
	if pin := from.Get(HeaderGen); pin != "" {
		up.Set(HeaderGen, pin)
	}
}

// relayMarker passes an upstream's bodiless segmented marker, and the
// generation beside it, toward the client-facing node.
func relayMarker(down, from http.Header) {
	down.Set(HeaderSegmented, from.Get(HeaderSegmented))
	if gen := from.Get(HeaderGen); gen != "" {
		down.Set(HeaderGen, gen)
	}
	down.Set(HeaderHit, from.Get(HeaderHit))
	down.Set("Content-Length", "0")
}

// formatSegmentedMarker / parseSegmentedMarker handle the origin's
// X-Cascade-Segmented response marker ("total;segsize"). The marker is a
// peer's arithmetic — its quotient is the number of sub-requests a
// reassembly issues, and the client-facing node remembers it — so a
// geometry of more than store.MaxSegments segments does not parse.
func formatSegmentedMarker(total, segSize int64) string {
	return strconv.FormatInt(total, 10) + ";" + strconv.FormatInt(segSize, 10)
}

func parseSegmentedMarker(v string) (total, segSize int64, ok bool) {
	semi := strings.IndexByte(v, ';')
	if semi < 0 {
		return 0, 0, false
	}
	total, err1 := strconv.ParseInt(v[:semi], 10, 64)
	segSize, err2 := strconv.ParseInt(v[semi+1:], 10, 64)
	if err1 != nil || err2 != nil || store.SegmentCount(total, segSize) == 0 {
		return 0, 0, false
	}
	return total, segSize, true
}

// parseByteRange decodes a single-range "bytes=lo-hi" header (the only
// shape the segment protocol emits; open-ended and multi-range forms are
// rejected).
func parseByteRange(v string) (lo, hi int64, ok bool) {
	const prefix = "bytes="
	if !strings.HasPrefix(v, prefix) {
		return 0, 0, false
	}
	dash := strings.IndexByte(v[len(prefix):], '-')
	if dash < 0 {
		return 0, 0, false
	}
	lo, err1 := strconv.ParseInt(v[len(prefix):len(prefix)+dash], 10, 64)
	hi, err2 := strconv.ParseInt(v[len(prefix)+dash+1:], 10, 64)
	if err1 != nil || err2 != nil || lo < 0 || hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// fmtRange renders a Range request value, "bytes=lo-hi", and fmtContentRange
// a Content-Range response value, "bytes lo-hi/total" ("/*" for a negative
// total: complete length unknown). One of each is written per segment per
// hop, so they are built in a stack buffer — three 19-digit numbers fit —
// rather than through fmt.
func fmtRange(lo, hi int64) string {
	var buf [72]byte
	return string(appendLoHi(append(buf[:0], "bytes="...), lo, hi))
}

func fmtContentRange(lo, hi, total int64) string {
	var buf [72]byte
	b := appendLoHi(append(buf[:0], "bytes "...), lo, hi)
	if total < 0 {
		return string(append(b, "/*"...))
	}
	return string(strconv.AppendInt(append(b, '/'), total, 10))
}

func appendLoHi(b []byte, lo, hi int64) []byte {
	b = strconv.AppendInt(b, lo, 10)
	return strconv.AppendInt(append(b, '-'), hi, 10)
}

// writeBody finishes a locally-served response: explicit Content-Length,
// and for segment requests the 206/Content-Range framing (a cache does not
// know the base object's total size, hence the "*" complete-length).
func writeBody(w http.ResponseWriter, seg segInfo, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if seg.on && len(body) > 0 {
		lo := seg.lo()
		w.Header().Set("Content-Range", fmtContentRange(lo, lo+int64(len(body))-1, -1))
		w.WriteHeader(http.StatusPartialContent)
	}
	w.Write(body) //nolint:errcheck
}

// relayBuf is one pooled relay buffer together with the writer wrapper that
// makes io.CopyBuffer use it. CopyBuffer ignores its buffer when dst
// implements io.ReaderFrom, and *http.response does: its ReadFrom sniffs
// 512 bytes, flushes the header and hands the rest to the socket's
// ReadFrom, which, unless src is a socket it can splice from, allocates a
// fresh 32 KiB buffer per body (net.genericReadFrom). dst is therefore
// passed as a struct that promotes Write and nothing else; it lives in the
// pooled value so that hiding the method costs no allocation either.
// ReadFrom is reached on purpose only for a kernel relay (hopBody.relayTo).
type relayBuf struct {
	dst struct{ io.Writer }
	buf [32 * 1024]byte
}

// copyBufPool feeds relay-hop streaming: bodies that only pass through a
// node are copied upstream→client through one pooled 32 KiB buffer instead
// of being buffered whole.
var copyBufPool = sync.Pool{New: func() any { return new(relayBuf) }}

// copyStream streams src to dst through a pooled buffer — except a hop
// body whose rest is still on its socket, which goes to dst's ReadFrom
// (hopBody.relayTo): the kernel splices it when dst is a socket too, and
// every writer that takes it checks the limit against what it still owes.
func copyStream(dst io.Writer, src io.Reader) (int64, error) {
	if b, ok := src.(*hopBody); ok {
		if rf, ok := dst.(io.ReaderFrom); ok {
			if n, ok, err := b.relayTo(dst, rf); ok {
				return n, err
			}
		}
	}
	rb := copyBufPool.Get().(*relayBuf)
	rb.dst.Writer = dst
	n, err := io.CopyBuffer(&rb.dst, src, rb.buf[:])
	rb.dst.Writer = nil
	copyBufPool.Put(rb)
	return n, err
}

// readBody reads a response body the node is about to store. A declared
// length that fits the node's byte budget is read into a slice of exactly
// that length, so the stored body carries no spare capacity and is not
// reallocated on the way; a short body is io.ErrUnexpectedEOF. Any other
// length — unknown, or beyond limit — takes io.ReadAll's incremental
// growth: the number comes from a peer, and a peer's number is never an
// allocation size.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= limit {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}

// segmentWriter is the http.ResponseWriter a segment sub-request answers
// into during reassembly: a pass-through that forwards each body Write
// straight to the client's writer — a segment hit hands over the store's
// slice, a relayed segment flows through copyStream, spliced when it arrives
// on an upstream client's connection (ReadFrom) — so the client-facing node
// holds no copy of a segment it merely delivers. The sub-response's status,
// declared Content-Length and generation are checked when its header is
// written, before any byte is forwarded; nothing is sized from the
// peer-supplied marker, and no byte beyond want is ever forwarded.
type segmentWriter struct {
	dst       http.ResponseWriter // the client's writer
	header    http.Header         // the sub-response's own headers; not forwarded
	pin       uint64              // the reassembly's generation; a sub-response at any other is refused
	first     bool                // segment 0: nothing has reached the client's header yet
	want      int64               // the segment's length as the marker implies it
	sent      int64               // bytes forwarded to the client so far
	status    int                 // the sub-response's status, 0 until its header is written
	accepted  bool                // status is 200/206, the declared length is want, the generation is pin
	overtaken bool                // refused for its generation alone: the pin is no longer the object's
	err       error               // first client write error, or http.ErrContentLength
}

// begin readies the writer for the next segment's sub-response.
func (s *segmentWriter) begin(want int64, first bool) {
	clear(s.header)
	s.first, s.want, s.sent, s.status, s.accepted, s.overtaken, s.err = first, want, 0, 0, false, false, nil
}

// complete reports whether the whole segment reached the client.
func (s *segmentWriter) complete() bool { return s.accepted && s.err == nil && s.sent == s.want }

func (s *segmentWriter) Header() http.Header { return s.header }

func (s *segmentWriter) WriteHeader(code int) {
	if s.status != 0 {
		return
	}
	s.status = code
	if (code != http.StatusOK && code != http.StatusPartialContent) ||
		s.header.Get("Content-Length") != strconv.FormatInt(s.want, 10) {
		return
	}
	// An absent generation is generation zero (an old peer, or an origin
	// without an authority), which only a reassembly pinned at zero accepts.
	gen, ok := parseGen(s.header.Get(HeaderGen))
	s.overtaken = !ok || gen != s.pin
	s.accepted = !s.overtaken
	// The client's header goes out with byte 0, so only the first segment
	// can mark the whole answer degraded.
	if s.accepted && s.first && s.header.Get(headerDegraded) != "" {
		s.dst.Header().Set(headerDegraded, "1")
	}
}

func (s *segmentWriter) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.WriteHeader(http.StatusOK)
	}
	if !s.accepted {
		// A refused sub-response's body (an error page, or another
		// generation's bytes) goes nowhere.
		return len(p), nil
	}
	if s.err != nil {
		return 0, s.err
	}
	over := int64(len(p)) > s.want-s.sent
	if over {
		p = p[:s.want-s.sent]
	}
	n, err := s.dst.Write(p)
	s.sent += int64(n)
	if err == nil && over {
		err = http.ErrContentLength
	}
	s.err = err
	return n, err
}

// ReadFrom hands an accepted segment's remainder to the client's writer's
// ReadFrom — a splice(2) when both ends are sockets — when src is an
// *io.LimitedReader within what the segment still owes. Anything else takes
// Write, and its checks, through copyStream's pooled buffer.
func (s *segmentWriter) ReadFrom(src io.Reader) (int64, error) {
	if s.status == 0 {
		s.WriteHeader(http.StatusOK)
	}
	lr, ok := src.(*io.LimitedReader)
	rf, isRF := s.dst.(io.ReaderFrom)
	if !ok || !isRF || !s.accepted || s.err != nil || lr.N > s.want-s.sent {
		return copyStream(s, src)
	}
	n, err := rf.ReadFrom(lr)
	s.sent += n
	s.err = err
	return n, err
}

// segMarker is a validated X-Cascade-Segmented marker with the generation
// the origin issued it at: everything a reassembly needs, and all the
// client-facing node remembers of a large object between GETs.
type segMarker struct {
	total, segSize int64
	gen            uint64  // the base object's generation: the reassembly's pin
	fetched        float64 // Clock time the marker arrived, for Node.TTL
}

const (
	// markerMemoMaxEntries bounds the client-facing node's marker memo; a
	// full memo is dropped whole and refills from the GETs that follow (an
	// entry is a few dozen bytes and costs one upstream exchange to regain).
	markerMemoMaxEntries = 4096
	// maxReassemblyRestarts bounds how often one GET starts over with a
	// fresh marker because its pinned generation was overtaken before the
	// first payload byte. Each restart needs a write to land between a
	// marker and its first segment, so two in a row is already a writer
	// outrunning the reader; the third answer is a 502.
	maxReassemblyRestarts = 2
)

// reassemblyOutcome indexes Node.reassembly
// (cascade_gw_reassembly_total{outcome=…}). Every reassembly ends in exactly
// one of ok, marker_hit, truncated and refused; restarted counts the fresh
// starts on the way there.
type reassemblyOutcome int

const (
	reassemblyOK        reassemblyOutcome = iota // every byte delivered; the marker came from upstream
	reassemblyMarkerHit                          // every byte delivered; the marker was remembered, no upstream exchange for it
	reassemblyRestarted                          // pin overtaken before the first payload byte: marker dropped, started over
	reassemblyTruncated                          // ended short of Content-Length after the first payload byte
	reassemblyRefused                            // answered 502 without a payload byte
	numReassemblyOutcomes
)

var reassemblyOutcomeNames = [numReassemblyOutcomes]string{"ok", "marker_hit", "restarted", "truncated", "refused"}

// acceptMarker validates an upstream's marker and the generation beside it.
// A malformed or over-cap geometry is counted and answered with a 502; a
// malformed generation zero-defaults like every other X-Cascade-Gen.
func (n *Node) acceptMarker(w http.ResponseWriter, h http.Header, now float64) (segMarker, bool) {
	marker := h.Get(HeaderSegmented)
	total, segSize, ok := parseSegmentedMarker(marker)
	if !ok {
		n.badSegment.Add(1)
		n.reassembly[reassemblyRefused].Add(1)
		http.Error(w, "httpgw: bad segmented marker "+strconv.Quote(marker), http.StatusBadGateway)
		return segMarker{}, false
	}
	gen, ok := parseGen(h.Get(HeaderGen))
	if !ok {
		n.badGen.Add(1)
	}
	return segMarker{total: total, segSize: segSize, gen: gen, fetched: now}, true
}

// rememberMarker records base's marker in the memo while the node is
// Active. The check shares the memo's lock with the drain's clearing, so a
// drained node remembers nothing.
func (n *Node) rememberMarker(base model.ObjectID, m segMarker) {
	n.markerMu.Lock()
	defer n.markerMu.Unlock()
	if !n.active() {
		return
	}
	if n.markers == nil || len(n.markers) >= markerMemoMaxEntries {
		n.markers = make(map[model.ObjectID]segMarker)
	}
	n.markers[base] = m
}

// forgetMarker drops base's remembered marker if it is still the one at
// generation gen (a concurrent GET may already have replaced it).
func (n *Node) forgetMarker(base model.ObjectID, gen uint64) {
	n.markerMu.Lock()
	if m, ok := n.markers[base]; ok && m.gen == gen {
		delete(n.markers, base)
	}
	n.markerMu.Unlock()
}

// serveSegmented reassembles a large object for the client: this node is
// the client-facing hop (empty incoming path) and holds the object's marker
// — just fetched, or remembered from an earlier GET (fromMemo) — so it
// fetches each Range segment through its own full protocol stack — each
// segment is a distinct object identity with its own hit path, placement
// decision and spill behaviour — and writes them through to the client in
// order. The response carries the marker, the exact total length and the one
// generation every byte of it belongs to; it has no single placement
// decision because every segment decided for itself.
//
// The marker's generation pins the reassembly: every sub-request carries it
// as X-Cascade-Gen, every hop treats it as exact, and a sub-response at any
// other generation is refused, so a body is never spliced from two writes.
// A first segment that is refused turns the response into a 502 with no
// payload byte — unless it was refused for its generation alone, in which
// case the marker is forgotten and serveSegmented returns true: the caller
// starts the GET over with a fresh marker (restarts counts the times it
// already has; after maxReassemblyRestarts the answer is the 502). A later
// failure — refused, overtaken, short, overlong, or the client gone — ends
// the response where it stands, short of its Content-Length, which is how
// the client detects the truncation.
func (n *Node) serveSegmented(w http.ResponseWriter, r *http.Request, base model.ObjectID, m segMarker, fromMemo bool, restarts int, tsp *span.Trace) (restart bool) {
	// One sub-request serves every segment in turn (the handler keeps
	// nothing of it past its return); only the Range and segment headers
	// change.
	sreq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, r.URL.Path, nil)
	if err != nil {
		n.reassembly[reassemblyRefused].Add(1)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return false
	}
	h := w.Header()
	h.Set(HeaderSegmented, formatSegmentedMarker(m.total, m.segSize))
	h.Set("Content-Length", strconv.FormatInt(m.total, 10))
	if m.gen != 0 {
		pin := strconv.FormatUint(m.gen, 10)
		h.Set(HeaderGen, pin)
		sreq.Header.Set(HeaderGen, pin)
	}
	sw := &segmentWriter{dst: w, header: make(http.Header), pin: m.gen}
	nsegs := store.SegmentCount(m.total, m.segSize)
	for idx := 0; idx < nsegs; idx++ {
		seg := segInfo{on: true, idx: idx, size: m.segSize}
		lo := seg.lo()
		want := min(m.segSize, m.total-lo)
		sreq.Header.Set("Range", fmtRange(lo, lo+want-1))
		sreq.Header.Set(HeaderSegment, seg.header())
		sw.begin(want, idx == 0)
		n.ServeHTTP(sw, sreq)
		if sw.complete() {
			continue
		}
		if sw.overtaken {
			// Whatever else happens, this marker's generation is history.
			n.forgetMarker(base, m.gen)
		}
		if idx > 0 || sw.sent > 0 || sw.err != nil {
			n.reassembly[reassemblyTruncated].Add(1)
			tsp.Force(span.FlagStale)
			return false
		}
		// Nothing has been handed to the client yet: the answer can still
		// be a fresh start or an error rather than a truncated object.
		h.Del(HeaderSegmented)
		h.Del("Content-Length")
		h.Del(HeaderGen)
		if sw.overtaken && restarts < maxReassemblyRestarts {
			n.reassembly[reassemblyRestarted].Add(1)
			tsp.Force(span.FlagStale)
			return true
		}
		n.reassembly[reassemblyRefused].Add(1)
		http.Error(w, "httpgw: segment 0 unavailable, or not the length and generation the marker implies", http.StatusBadGateway)
		return false
	}
	if fromMemo {
		n.reassembly[reassemblyMarkerHit].Add(1)
	} else {
		n.reassembly[reassemblyOK].Add(1)
	}
	return false
}
