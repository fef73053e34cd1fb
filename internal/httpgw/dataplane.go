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

// bodyRecorder captures one in-process sub-request's response during
// segmented reassembly — the only place the client-facing node buffers, and
// it holds at most one segment.
type bodyRecorder struct {
	header http.Header
	status int
	buf    []byte
}

func (b *bodyRecorder) Header() http.Header { return b.header }

func (b *bodyRecorder) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bodyRecorder) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// serveSegmented reassembles a large object for the client: the upstream
// answered with the X-Cascade-Segmented marker instead of a body, and this
// node is the client-facing hop (empty incoming path), so it fetches each
// Range segment through its own full protocol stack — each segment is a
// distinct object identity with its own hit path, placement decision and
// spill behaviour — and streams them to the client in order. The response
// carries the marker and the exact total length; it has no single
// placement decision because every segment decided for itself.
func (n *Node) serveSegmented(w http.ResponseWriter, r *http.Request, marker string) {
	total, segSize, ok := parseSegmentedMarker(marker)
	if !ok {
		n.badSegment.Add(1)
		http.Error(w, "httpgw: bad segmented marker "+strconv.Quote(marker), http.StatusBadGateway)
		return
	}
	nsegs := store.SegmentCount(total, segSize)
	w.Header().Set(HeaderSegmented, marker)
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	for idx := 0; idx < nsegs; idx++ {
		seg := segInfo{on: true, idx: idx, size: segSize}
		lo := seg.lo()
		hi := lo + segSize - 1
		if hi >= total {
			hi = total - 1
		}
		sreq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, r.URL.Path, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		sreq.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", lo, hi))
		sreq.Header.Set(HeaderSegment, seg.header())
		want := hi - lo + 1
		rec := &bodyRecorder{header: make(http.Header)}
		if want <= n.capacity {
			// The segment's length is known; a node cannot hold more
			// than its budget, and the marker is a peer's claim, so
			// anything larger grows as it arrives.
			rec.buf = make([]byte, 0, want)
		}
		n.ServeHTTP(rec, sreq)
		if rec.status != http.StatusOK && rec.status != http.StatusPartialContent {
			if idx == 0 {
				w.WriteHeader(http.StatusBadGateway)
			}
			// Mid-stream failure: stop short — the Content-Length mismatch
			// surfaces the truncation to the client.
			return
		}
		if int64(len(rec.buf)) != want {
			if idx == 0 {
				http.Error(w, "httpgw: segment length mismatch", http.StatusBadGateway)
			}
			return
		}
		if _, err := w.Write(rec.buf); err != nil {
			return
		}
	}
}
