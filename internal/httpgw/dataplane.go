package httpgw

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"cascade/internal/flightrec"
	"cascade/internal/model"
	"cascade/internal/store"
)

// The gateway's data plane: response bodies stream through pooled buffers
// on relay hops, NCL evictions spill payloads to a disk tier instead of
// dropping them, and over-threshold objects travel as fixed-size Range
// segments, each a first-class object to the placement decision. The
// descriptor-plane protocol (path/place/penalty headers) is untouched —
// segments simply have their own object identity (store.SegmentID), so
// every existing invariant applies per segment.

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
	n.mu.Lock()
	n.bodies = t
	n.mu.Unlock()
	return nil
}

// SpillContains reports whether the object's bytes sit in the disk spill
// tier (and only there).
func (n *Node) SpillContains(obj model.ObjectID) bool {
	n.mu.Lock()
	b := n.bodies
	n.mu.Unlock()
	return b.Contains(obj) == store.SrcDisk
}

// BodyStats returns the node's data-plane accounting snapshot.
func (n *Node) BodyStats() store.Stats {
	n.mu.Lock()
	b := n.bodies
	n.mu.Unlock()
	return b.Stats()
}

// spillVictim moves an evicted object's payload to the disk tier (or drops
// it without one). Caller holds n.mu.
func (n *Node) spillVictim(v model.ObjectID, now float64) {
	body, _, ok := n.bodies.GetMemory(v)
	if !ok {
		return
	}
	if n.bodies.Spill(v) {
		n.flight.Record(flightrec.Event{Time: now, Node: n.ID, Kind: flightrec.KindSpill, Obj: v, Hop: -1, A: float64(len(body))})
	}
}

// parsePenalty decodes an X-Cascade-Penalty value with an explicit ok
// flag: an absent header is legitimately zero (a hop outside the
// protocol), but a malformed, negative or non-finite one reports !ok so
// the caller can count it instead of silently zeroing the counter.
func parsePenalty(v string) (float64, bool) {
	if v == "" {
		return 0, true
	}
	f, err := parseFinite(v)
	if err != nil || f < 0 {
		return 0, false
	}
	return f, true
}

// segInfo is a parsed X-Cascade-Segment request header: this request asks
// for segment idx of a large object split into size-byte segments.
type segInfo struct {
	on   bool
	idx  int
	size int64
}

func (s segInfo) lo() int64 { return int64(s.idx) * s.size }

// header renders the wire form "idx;segsize".
func (s segInfo) header() string {
	return strconv.Itoa(s.idx) + ";" + strconv.FormatInt(s.size, 10)
}

// parseSegmentRequest decodes the X-Cascade-Segment header ("idx;segsize").
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
	if err1 != nil || err2 != nil || idx < 0 || size <= 0 {
		return segInfo{}, fmt.Errorf("httpgw: bad segment header %q", v)
	}
	return segInfo{on: true, idx: idx, size: size}, nil
}

// formatSegmentedMarker / parseSegmentedMarker handle the origin's
// X-Cascade-Segmented response marker ("total;segsize").
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
	if err1 != nil || err2 != nil || total <= 0 || segSize <= 0 {
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

// writeBody finishes a locally-served response: explicit Content-Length,
// and for segment requests the 206/Content-Range framing (a cache does not
// know the base object's total size, hence the "*" complete-length).
func writeBody(w http.ResponseWriter, seg segInfo, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if seg.on && len(body) > 0 {
		lo := seg.lo()
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", lo, lo+int64(len(body))-1))
		w.WriteHeader(http.StatusPartialContent)
	}
	w.Write(body) //nolint:errcheck
}

// relayBuf is one pooled relay buffer together with the writer wrapper that
// makes io.CopyBuffer use it. CopyBuffer ignores its buffer when dst
// implements io.ReaderFrom, and *http.response does: its ReadFrom sniffs
// 512 bytes, flushes the header and hands the rest to net.genericReadFrom,
// which allocates a fresh 32 KiB buffer per body. dst is therefore passed
// as a struct that promotes Write and nothing else; it lives in the pooled
// value so that hiding the method costs no allocation either.
type relayBuf struct {
	dst struct{ io.Writer }
	buf [32 * 1024]byte
}

// copyBufPool feeds relay-hop streaming: bodies that only pass through a
// node are copied upstream→client through one pooled 32 KiB buffer instead
// of being buffered whole.
var copyBufPool = sync.Pool{New: func() any { return new(relayBuf) }}

// copyStream streams src to dst through a pooled buffer.
func copyStream(dst io.Writer, src io.Reader) (int64, error) {
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
// slice, a relayed segment flows through copyStream's pooled buffer — so the
// client-facing node holds no copy of a segment it merely delivers. The
// sub-response's status and declared Content-Length are checked when its
// header is written, before any byte is forwarded; nothing is sized from the
// peer-supplied marker, and no byte beyond want is ever forwarded.
type segmentWriter struct {
	dst      http.ResponseWriter // the client's writer
	header   http.Header         // the sub-response's own headers; not forwarded
	want     int64               // the segment's length as the marker implies it
	sent     int64               // bytes forwarded to the client so far
	status   int                 // the sub-response's status, 0 until its header is written
	accepted bool                // status is 200/206 and the declared length is want
	err      error               // first client write error, or http.ErrContentLength
}

// begin readies the writer for the next segment's sub-response.
func (s *segmentWriter) begin(want int64) {
	clear(s.header)
	s.want, s.sent, s.status, s.accepted, s.err = want, 0, 0, false, nil
}

// complete reports whether the whole segment reached the client.
func (s *segmentWriter) complete() bool { return s.accepted && s.err == nil && s.sent == s.want }

func (s *segmentWriter) Header() http.Header { return s.header }

func (s *segmentWriter) WriteHeader(code int) {
	if s.status != 0 {
		return
	}
	s.status = code
	s.accepted = (code == http.StatusOK || code == http.StatusPartialContent) &&
		s.header.Get("Content-Length") == strconv.FormatInt(s.want, 10)
}

func (s *segmentWriter) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.WriteHeader(http.StatusOK)
	}
	if !s.accepted {
		// A refused sub-response's body (an error page) goes nowhere.
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

// serveSegmented reassembles a large object for the client: the upstream
// answered with the X-Cascade-Segmented marker instead of a body, and this
// node is the client-facing hop (empty incoming path), so it fetches each
// Range segment through its own full protocol stack — each segment is a
// distinct object identity with its own hit path, placement decision and
// spill behaviour — and writes them through to the client in order. The
// response carries the marker and the exact total length; it has no single
// placement decision because every segment decided for itself. A first
// segment that is refused turns the response into a 502 with no payload
// byte; a later failure — refused, short, overlong, or the client gone —
// ends the response where it stands, short of its Content-Length, which is
// how the client detects the truncation.
func (n *Node) serveSegmented(w http.ResponseWriter, r *http.Request, marker string) {
	total, segSize, ok := parseSegmentedMarker(marker)
	if !ok {
		n.badSegment.Add(1)
		http.Error(w, "httpgw: bad segmented marker "+strconv.Quote(marker), http.StatusBadGateway)
		return
	}
	// One sub-request serves every segment in turn (the handler keeps
	// nothing of it past its return); only the two headers change.
	sreq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, r.URL.Path, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	nsegs := store.SegmentCount(total, segSize)
	w.Header().Set(HeaderSegmented, marker)
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	sw := &segmentWriter{dst: w, header: make(http.Header)}
	for idx := 0; idx < nsegs; idx++ {
		seg := segInfo{on: true, idx: idx, size: segSize}
		lo := seg.lo()
		hi := lo + segSize - 1
		if hi >= total {
			hi = total - 1
		}
		sreq.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", lo, hi))
		sreq.Header.Set(HeaderSegment, seg.header())
		sw.begin(hi - lo + 1)
		n.ServeHTTP(sw, sreq)
		if !sw.complete() {
			if idx == 0 && sw.sent == 0 && sw.err == nil {
				// Nothing has been handed to the client yet: the answer
				// can still be an error rather than a truncated object.
				w.Header().Del(HeaderSegmented)
				w.Header().Del("Content-Length")
				http.Error(w, "httpgw: segment 0 unavailable or not the length the marker implies", http.StatusBadGateway)
			}
			return
		}
	}
}
