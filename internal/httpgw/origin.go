package httpgw

import (
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"

	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// Origin is the content source: the serving point w at the top of every
// request's path (§2.3), a node that always hits. With Dir set it serves
// files from that directory tree (reverse-proxy-style content); otherwise it
// synthesizes deterministic pseudo-random bytes of Size(obj) length.
//
// It serves through a Node of its own that never caches, never places and
// takes no protocol step: a GET runs the node's decode, control endpoints,
// observability (node="origin") and decision, and only the answer is the
// origin's. As a server's whole handler it is served by the node's loop.
type Origin struct {
	// Size returns a synthetic object's payload length.
	Size func(model.ObjectID) int
	// Dir, when non-empty, serves request paths as files beneath it. A file
	// must be replaced by a rename, never rewritten in place: an answer
	// hashes its validator and sends its bytes from one open descriptor.
	Dir string
	// Deprecated: no-op since the binary frame was removed; kept until
	// bench/ stops assigning it.
	DisableBinaryFraming bool
	// SegmentThreshold and SegmentSize, both positive, switch objects
	// larger than the threshold to segmented delivery: a plain GET is
	// answered with the bodiless X-Cascade-Segmented marker, and the
	// client-facing gateway refetches the object as SegmentSize-byte Range
	// segments, each placed independently (docs/DATAPLANE.md).
	SegmentThreshold int64
	SegmentSize      int64

	// Authority, when set, makes the origin the cascade's generation
	// authority: POST /cascade/admin/invalidate bumps an object's
	// generation, every decision response carries the object's current
	// generation plus the log's recent tail (PSI piggybacking), and the
	// chain below validates served copies against the floors it learns
	// here. Nil keeps the origin generation-oblivious (ModeNone wire image —
	// responses carry no coherency payload).
	Authority *coherency.Authority

	once sync.Once
	node *Node

	// etags remembers the validators of large synthetic payloads, each
	// hashed once; a full memo is dropped whole and refills.
	etagMu sync.Mutex
	etags  map[etagKey]string
}

// Node returns the node the origin serves through, built on first use: ID
// model.NoNode, no upstream, no cache, no d-cache, and a clock pinned to 0.
func (o *Origin) Node() *Node {
	o.once.Do(func() {
		o.node = NewNode(model.NoNode, "", 0, 0, 0, func() float64 { return 0 })
		o.node.origin = o
	})
	return o.node
}

// ServeHTTP serves the origin through its node.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) { o.Node().ServeHTTP(w, r) }

func (*Origin) servesEdge() {}

// EnableObservability sizes the origin node's span ring to capacity records
// (0 or negative: no ring — events are dropped, violations still count)
// and sets its clock (nil keeps 0), which stamps decisions, spans and
// events. Call before serving.
func (o *Origin) EnableObservability(capacity int, clock func() float64) {
	if clock != nil {
		o.Node().Clock = clock
	}
	o.Node().setRing(capacity)
}

// EnableSpans makes the origin keep the decide span of every traced request
// it serves, joined to the trace the last hop forwarded (Node.EnableSpans).
func (o *Origin) EnableSpans(policy span.Policy, capacity int) {
	o.Node().EnableSpans(policy, capacity)
}

// Auditor returns the auditor of the origin's placement decisions.
func (o *Origin) Auditor() *audit.Auditor { return o.Node().Auditor() }

// serve answers a GET at the origin, decoded by its node: the segmented
// marker for a plain GET of an over-threshold object, the slice a bare Range
// request asks for, or the object — whole, or one segment.
func (o *Origin) serve(w http.ResponseWriter, r *http.Request, n *Node, g *getReq) {
	src, ok := o.open(r.URL.Path, g.base)
	if !ok {
		http.Error(w, "object not found", http.StatusNotFound)
		return
	}
	if src.f != nil {
		defer src.f.Close()
	}
	rng, h := r.Header.Get("Range"), w.Header()
	switch {
	case g.seg.on:
		o.serveObject(w, r, n, g, &src)
	case rng != "":
		src.serveSlice(w, rng)
	case o.SegmentThreshold > 0 && src.size > o.SegmentThreshold && store.SegmentCount(src.size, o.SegmentSize) > 0:
		// The bodiless segmented marker (an object that would take more
		// than store.MaxSegments segments is served whole: no node would
		// accept its marker). It carries no decision — the base identity
		// takes no placement; every segment decides for itself — but the
		// object's generation rides along: the reassembly pins its segments
		// to it.
		h.Set(HeaderSegmented, formatSegmentedMarker(src.size, o.SegmentSize))
		if o.Authority != nil {
			if gen := o.Authority.Gen(g.base); gen != 0 {
				h.Set(HeaderGen, strconv.FormatUint(gen, 10))
			}
		}
		h.Set(HeaderHit, originName)
		h.Set("Content-Length", "0")
	default:
		o.serveObject(w, r, n, g, &src)
	}
}

// serveObject answers a protocol object — the whole body, or one segment of
// a large one — as serveHit answers from a copy: the decision on the
// object's own identity, stamped with the generation of the object writers
// name (the base), the validator, then the bytes.
func (o *Origin) serveObject(w http.ResponseWriter, r *http.Request, n *Node, g *getReq, src *source) {
	lo, hi := int64(0), src.size-1
	if g.seg.on {
		// The Range must agree with the declared segment geometry.
		var ok bool
		lo, hi, ok = parseByteRange(r.Header.Get("Range"))
		if !ok || lo != g.seg.lo() || lo >= src.size {
			http.Error(w, "httpgw: segment range mismatch", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		hi = min(hi, src.size-1)
	}
	inm := r.Header.Get("If-None-Match")
	tag, body, err := o.validator(src, lo, hi, inm)
	if err != nil {
		http.Error(w, "object unreadable", http.StatusInternalServerError)
		return
	}
	n.decide(w.Header(), g, o.decision(g.base), tag)
	// The decide span is the origin's only one: its trace is collected here,
	// before a byte of the answer leaves, not by ServeHTTP's deferred call.
	n.tracer.Collect(g.tsp, g.now, n.ringOf)
	g.tsp = nil
	if inm == tag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(hi-lo+1, 10))
	if g.seg.on {
		w.Header().Set("Content-Range", fmtContentRange(lo, hi, src.size))
		w.WriteHeader(http.StatusPartialContent)
	}
	src.send(w, body, lo, hi)
}

// decision is the coherency payload of an origin answer: the object's
// current generation — base's, for a segment — plus the log's recent tail.
func (o *Origin) decision(base model.ObjectID) decision {
	var d decision
	if o.Authority != nil {
		d.gen = o.Authority.Gen(base)
		d.invHead = o.Authority.Head()
		d.inval = o.Authority.Tail(nil)
	}
	return d
}

// validator returns the ETag of bytes [lo, hi], with the synthetic bytes it
// generated on the way (nil for a file, or when none were needed). A
// synthetic body is a pure function of the key, so the validator of a large
// one is remembered rather than rehashed, and a conditional GET that matches
// a remembered validator is answered without generating the bytes at all. A
// file's bytes can change under the same name, so Dir mode hashes them from
// the open descriptor every time.
func (o *Origin) validator(src *source, lo, hi int64, inm string) (tag string, body []byte, err error) {
	if src.f != nil {
		h := fnv.New64a()
		_, err := copyStream(h, io.NewSectionReader(src.f, lo, hi-lo+1))
		return etagSum(h), nil, err
	}
	key := etagKey{obj: src.obj, size: src.size, lo: lo, hi: hi}
	memoised := hi-lo+1 >= etagMemoMinBytes
	if memoised {
		o.etagMu.Lock()
		tag = o.etags[key]
		o.etagMu.Unlock()
		if tag != "" && tag == inm {
			return tag, nil, nil
		}
	}
	if body = src.synthetic(lo, hi); tag != "" {
		return tag, body, nil
	}
	tag = etagOf(body)
	if memoised {
		o.etagMu.Lock()
		if o.etags == nil || len(o.etags) >= etagMemoMaxEntries {
			o.etags = make(map[etagKey]string)
		}
		o.etags[key] = tag
		o.etagMu.Unlock()
	}
	return tag, body, nil
}

// source is one object's bytes at the origin: a Dir file, open once — its
// size, its validator and the bytes sent all come from this descriptor —
// or the synthetic generator.
type source struct {
	f    *os.File // nil: synthetic
	obj  model.ObjectID
	size int64
}

// open resolves the object a request path names.
func (o *Origin) open(urlPath string, obj model.ObjectID) (source, bool) {
	if o.Dir == "" {
		size := int64(1024)
		if o.Size != nil {
			size = int64(o.Size(obj))
		}
		return source{obj: obj, size: size}, true
	}
	// path.Clean plus the Join keeps the lookup inside Dir (".." cannot
	// escape a cleaned rooted path). O_NONBLOCK: a FIFO opens without
	// waiting for a writer, and is refused below; a regular file ignores it.
	name := filepath.Join(o.Dir, filepath.FromSlash(path.Clean("/"+urlPath)))
	f, err := os.OpenFile(name, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return source{}, false
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		f.Close()
		return source{}, false
	}
	return source{f: f, obj: obj, size: fi.Size()}, true
}

// synthetic returns bytes [lo, hi] of a synthetic object.
func (s *source) synthetic(lo, hi int64) []byte {
	return store.SyntheticRange(s.obj, int(s.size), int(lo), int(hi+1))
}

// send writes bytes [lo, hi]: body when the caller generated them, else
// the generator's, or the file's from the descriptor — through the
// writer's ReadFrom, which hands them to sendfile(2) where it can. A failed
// read ends the answer short, which is how the client learns of it.
func (s *source) send(w io.Writer, body []byte, lo, hi int64) {
	if s.f == nil {
		if body == nil {
			body = s.synthetic(lo, hi)
		}
		w.Write(body) //nolint:errcheck
		return
	}
	if _, err := s.f.Seek(lo, io.SeekStart); err == nil {
		io.Copy(w, &io.LimitedReader{R: s.f, N: hi - lo + 1}) //nolint:errcheck
	}
}

// serveSlice answers a bare Range request (no segment header). It sits
// outside the coordinated protocol: the slice goes without decision headers,
// so no cache treats it as a placeable object.
func (s *source) serveSlice(w http.ResponseWriter, rng string) {
	lo, hi, ok := parseByteRange(rng)
	if !ok || lo >= s.size {
		http.Error(w, "httpgw: unsatisfiable range", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	hi = min(hi, s.size-1)
	w.Header().Set("Content-Range", fmtContentRange(lo, hi, s.size))
	w.Header().Set("Content-Length", strconv.FormatInt(hi-lo+1, 10))
	w.WriteHeader(http.StatusPartialContent)
	s.send(w, nil, lo, hi)
}

// serveInvalidate is the origin's side of a write: bump the object's
// generation in the authority's log and acknowledge with the new (gen, seq)
// so the chain can apply it on the unwind. The bump also lands in the log
// tail piggybacked on subsequent responses, reaching branches of the tree
// the write request never traversed.
func (o *Origin) serveInvalidate(w http.ResponseWriter, r *http.Request) {
	if o.Authority == nil {
		http.Error(w, "httpgw: origin has no coherency authority", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	obj, err := strconv.ParseInt(r.URL.Query().Get("obj"), 10, 64)
	if err != nil || obj < 0 {
		http.Error(w, "httpgw: bad obj parameter", http.StatusBadRequest)
		return
	}
	gen, seq := o.Authority.Bump(model.ObjectID(obj))
	writeJSON(w, http.StatusOK, invalidateReply{Obj: obj, Gen: gen, Seq: seq})
}

// etagKey names one synthetic payload: bytes [lo, hi] of object obj
// generated at size bytes — everything the generator's output depends on.
type etagKey struct {
	obj          model.ObjectID
	size, lo, hi int64
}

const (
	// etagMemoMinBytes is the smallest body whose validator is remembered:
	// hashing 64 KiB costs tens of microseconds, three orders above a map
	// probe, while an entry per small object of a large catalog would cost
	// more heap than the hashing it saves is worth.
	etagMemoMinBytes = 64 << 10
	// etagMemoMaxEntries bounds the memo.
	etagMemoMaxEntries = 4096
)
