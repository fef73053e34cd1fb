// Package httpgw embodies the coordinated caching protocol in HTTP — the
// medium the paper targets. Each cache node is an http.Handler that chains
// to an upstream (another node or the origin); all coordination state
// travels in headers, exactly as §2.3's piggybacking prescribes:
//
//	X-Cascade-Path:     hop entries appended on the way up, each carrying
//	                    the node's frequency estimate, eviction cost loss
//	                    and the cost of the link just crossed;
//	X-Cascade-Decision: the serving side's one answer, made once: the
//	                    miss-penalty counter, updated and reset at caching
//	                    points on the way down, then the chosen nodes, each
//	                    with the DP's predicted Δcost term so it books its
//	                    own cost-ledger claim, then the invalidation tail.
//
// That textual form is the only encoding: every hop and every client speaks
// it (wire.go; docs/PROTOCOL.md has the header table). A piggybacked path is
// decoded once, up front, and refused with 400 when it is malformed or
// longer than maxPathEntries.
//
// A request's two passes are observable from its span trace (EnableSpans,
// /cascade/debug/spans): the engine's hop step annotates the node's up span
// with the (f, l) record it piggybacked and its down span with the
// miss-penalty counter it observed and what it did with the copy;
// engine.Decide annotates the decide span.
//
// The package demonstrates that the scheme deploys over a real transport
// with self-describing messages — no out-of-band control channel — and is
// exercised end-to-end over httptest servers in its tests. Object payloads
// are opaque bytes; a production gateway would proxy arbitrary content.
package httpgw

import (
	"encoding/gob"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cascade/internal/audit"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/controlplane"
	"cascade/internal/engine"
	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/store"
)

// Protocol header names.
const (
	headerPath = "X-Cascade-Path"
	// HeaderDecision is the serving point's answer (§2.3),
	// "<penalty>[;<node>=<term>,…[;<head>|<seq>:<obj>:<gen>,…]]": the
	// miss-penalty counter, the chosen nodes ascending, each with the DP's
	// predicted Δcost term for its placement (§2.1), and the origin's
	// invalidation-log head and tail; trailing empty fields are left out.
	// The serving point formats it once (Node.decide); every hop below
	// parses it once and forwards it with only the counter rewritten.
	HeaderDecision = "X-Cascade-Decision"
	HeaderHit      = "X-Cascade-Hit"
	// headerDegraded marks a response served outside the coordinated
	// protocol — fetched straight from the origin (or served stale) while
	// the upstream chain is unreachable. No placement decision rode along.
	headerDegraded = "X-Cascade-Degraded"
	// HeaderSegment marks a Range request as one segment of a segmented
	// large object: "idx;segsize". Nodes rewrite the object identity to
	// store.SegmentID(base, idx) and run the full protocol on it, so each
	// segment is a distinct placement decision (docs/DATAPLANE.md). Its
	// X-Cascade-Gen is not a floor but the reassembly's exact generation.
	HeaderSegment = "X-Cascade-Segment"
	// HeaderSegmented is the origin's bodiless marker response for an
	// over-threshold object: "total;segsize", with the object's generation
	// beside it in X-Cascade-Gen. Mid-chain nodes relay both; the
	// client-facing node remembers them, fans out per-segment Range
	// requests pinned to that generation and reassembles.
	HeaderSegmented = "X-Cascade-Segmented"
)

// etagOf derives a strong validator from a payload (FNV-1a over the
// bytes), used for If-None-Match revalidation.
func etagOf(body []byte) string {
	h := fnv.New64a()
	h.Write(body) //nolint:errcheck
	return etagSum(h)
}

// etagSum renders an FNV-1a hash of a payload as its validator.
func etagSum(h hash.Hash64) string { return fmt.Sprintf("%q", strconv.FormatUint(h.Sum64(), 16)) }

// originName names the origin in X-Cascade-Hit and in its series' node
// label.
const originName = "origin"

// nodeName is a node's name in X-Cascade-Hit and in its series' node label.
func nodeName(id model.NodeID) string {
	if id == model.NoNode {
		return originName
	}
	return strconv.Itoa(int(id))
}

// Node is one HTTP cache gateway. It serves GET /objects/<id>; misses are
// forwarded to Upstream with piggyback headers extended.
type Node struct {
	// ID names this node in protocol headers.
	ID model.NodeID
	// origin is set on the node an Origin serves through: the serving point
	// at the top of every path, which answers every GET from its source.
	origin *Origin
	// Upstream is the next hop's base URL (another Node or an Origin).
	Upstream string
	// UpCost is the cost of the link from this node toward Upstream.
	UpCost float64
	// Client issues upstream requests. When nil a shared default with
	// DefaultUpstreamTimeout is used (NewUpstreamClient: keep-alive
	// connections of its own to every http:// upstream) — never
	// http.DefaultClient, whose missing timeout would let one hung upstream
	// pin gateway goroutines forever. Set an explicit Client, e.g.
	// NewUpstreamClient(d), to choose another budget.
	Client *http.Client
	// Clock supplies seconds for frequency estimation.
	Clock func() float64
	// TTL, when positive, bounds how long a cached copy is served
	// without revalidation: an older copy triggers a conditional GET
	// upstream (If-None-Match); a 304 refreshes it for another TTL at
	// one round trip but no payload, anything else replaces it.
	TTL float64

	// OriginURL, when set, enables degraded mode: if the upstream chain
	// is unreachable (retries exhausted, or the upstream slot Down), the
	// node fetches straight from this URL and serves the bytes without
	// caching or coordination, marked with headerDegraded.
	OriginURL string
	// MaxRetries bounds upstream retry attempts after the initial try.
	// 0 means the default (2); negative disables retries.
	MaxRetries int
	// Sleep pauses between retries (time.Sleep when nil); injectable
	// for tests.
	Sleep func(time.Duration)
	// Deprecated: no-op since the binary frame was removed; kept until
	// bench/ stops assigning it.
	DisableBinaryFraming bool

	// The node has no lock of its own: the engine's shard locks and the
	// body store's tier lock guard everything a step touches, taken tier
	// lock first, and the control plane is cp's.
	//
	// st is the node's protocol state and bodies its data plane: the
	// in-memory payload tier plus, after EnableSpill, the disk-backed spill
	// tier (internal/store). Like view, tracer and spans, both pointers are
	// set only before serving (SetShards, EnableSpill), so the request path
	// reads them without a lock.
	st     *engine.Sharded
	bodies *store.Tiered

	capacity int64 // main-cache byte budget, kept for SetShards rebuilds
	dEntries int   // d-cache entry budget, kept for SetShards rebuilds

	// view is the node's coherency generation-floor view, shared with the
	// sharded engine state and the spill tier's MinGen oracle. Wired by
	// EnableCoherency before serving (nil — off — by default).
	view *coherency.NodeView

	shardSeries int // shard metric series registered so far

	// fence orders the protocol steps against a drain (adminDrain): each
	// step enters it, then checks membership; the drain marks the node
	// Draining, then waits out every step that entered before — the
	// cluster's discipline (runtime.Cluster.Drain).
	fence *controlplane.EpochGuard

	hits, misses, inserts, revalidations atomic.Int64
	spillHits, promotions                atomic.Int64

	// Malformed protocol headers received, counted per header kind
	// (cascade_gw_bad_header_total).
	badDecision, badSegment, badGen, badPath atomic.Int64

	// Relayed body bytes, by path: kernel (hopBody.relayTo) or copy
	// (cascade_gw_relayed_bytes_total).
	relayedKernel, relayedCopy atomic.Int64
	// hops holds the loop connections this node accepted (hop.go); served
	// counts requests by how they came (cascade_gw_served_total).
	hops   hopConns
	served [len(servedNames)]atomic.Int64

	// markers remembers, at the client-facing node, the segmented marker of
	// each large object it reassembled, so a later GET starts its segment
	// requests without walking upstream to be told the geometry again.
	// Guarded by markerMu, which no step holds; bounded by
	// markerMemoMaxEntries. An entry is used only while its generation meets
	// the read floor (and Node.TTL), and is dropped the moment a segment
	// answers at another generation.
	markerMu sync.Mutex
	markers  map[model.ObjectID]segMarker
	// reassembly counts what each large-object reassembly did, by
	// reassemblyOutcome (cascade_gw_reassembly_total).
	reassembly [numReassemblyOutcomes]atomic.Int64

	// Span tracing: the tracer, wired by EnableSpans (nil — off — by
	// default), and the node's one ring, built by NewNode, which keeps the
	// sampled spans and the node's event records (membership, health,
	// spill, coherency and audit events). Both are replaced only before
	// serving, so the request path reads them without a lock.
	tracer *span.Tracer
	spans  *span.Ring

	reg *metrics.Registry // Prometheus export, built by NewNode (MetricsRegistry)

	// reqHist books wall-clock latency for every data-path request
	// (cascade_gw_request_seconds); federation merges its buckets into the
	// cascade-wide p99. Set once by MetricsRegistry, nil only on hand-rolled
	// Nodes that never built a registry.
	reqHist *metrics.AtomicHistogram

	// Observability, built by NewNode: the online invariant auditor and the
	// predicted-vs-realized cost ledger.
	auditor *audit.Auditor
	ledger  *audit.Ledger

	// cp is the node's control plane, the Manager the cluster runs: slot
	// selfSlot holds this node's membership and advertised health, slot
	// upSlot the upstream's health, and its epoch counts both slots'
	// transitions (admin.go). Membership and health reads are one atomic
	// load, so the request path takes no lock for them. upProbe is the
	// upstream slot's threshold machine, fed by the prober and by the
	// upstream exchanges (fetchUpstream); probed is set once the prober has
	// run, and trialAt holds the Clock time, as float64 bits, of the
	// upstream's last fall to Down or its last cooldown trial.
	cp      *controlplane.Manager
	upProbe controlplane.Streak
	probed  atomic.Bool
	trialAt atomic.Uint64

	retries, degraded atomic.Int64
}

// NewNode builds a gateway node with the given stores. Observability is on
// from construction: the node carries an online invariant auditor, a
// predicted-vs-realized cost ledger and a span ring of defaultSpanCapacity
// records that keeps its events, the first two exported through the node's
// metrics registry — a deployed gateway wants the cascade_audit_* and
// cascade_ledger_* series present from the first scrape. Per-request
// history needs EnableSpans.
func NewNode(id model.NodeID, upstream string, upCost float64, capacity int64, dEntries int, clock func() float64) *Node {
	bodies, _ := store.NewTiered(store.Config{}) // memory-only never errors
	n := &Node{
		ID:       id,
		Upstream: upstream,
		UpCost:   upCost,
		Clock:    clock,
		capacity: capacity,
		dEntries: dEntries,
		bodies:   bodies,
		fence:    controlplane.NewEpochGuard(),
		cp:       controlplane.NewManager(2),
	}
	n.cp.SetOnEvent(n.transition)
	reg := n.MetricsRegistry()
	nl := metrics.L("node", nodeName(id))
	n.auditor = audit.New(reg, nl)
	n.ledger = audit.NewLedger()
	n.ledger.RegisterNode(reg, id, nl)
	n.st = engine.NewSharded(engine.ShardedConfig{
		Node:          id,
		Shards:        1,
		CacheBytes:    capacity,
		DCacheEntries: dEntries,
		Audit:         n.auditor,
		Ledger:        n.ledger,
	})
	n.setRing(defaultSpanCapacity)
	n.registerShardSeries()
	return n
}

// SetShards rebuilds the node's protocol state partitioned across p shards
// (rounded up to a power of two); the byte and descriptor budgets are split
// exactly across the shards and protocol steps on different shards stop
// contending. Call before serving: cached payloads and descriptors are
// discarded.
func (n *Node) SetShards(p int) {
	n.st = engine.NewSharded(engine.ShardedConfig{
		Node:          n.ID,
		Shards:        p,
		CacheBytes:    n.capacity,
		DCacheEntries: n.dEntries,
		Ring:          n.spans,
		Audit:         n.auditor,
		Ledger:        n.ledger,
		Coherency:     n.view,
	})
	// The memory tier goes with the descriptors; disk copies survive like
	// a process restart would leave them.
	n.bodies.Reset()
	n.registerShardSeries()
}

// The X-Cascade-Path header carries one engine.Candidate per hop as
// "node;freq;loss;linkcost" — plus an optional fifth field, the coherency
// generation of the node's last copy, emitted only when non-zero so
// pre-coherency wire images stay byte-identical — appended in wire order
// (the client's first cache first). An excluded hop — the §2.4 "no
// descriptor" tag, which on this transport also covers engine.TagCannotFit
// — encodes freq/loss as "-"; parsePath maps both back to
// engine.TagNoDescriptor, a lossless collapse for the decision (both tags
// are excluded identically and only contribute their link cost).

// fmtFloat renders a float64 so it survives format→parse→format exactly
// ('g' with precision -1 is the shortest representation that round-trips).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseNodeID decodes a node ID field. model.NodeID is 32 bits wide; a value
// outside it is malformed, never truncated onto some other node.
func parseNodeID(s string) (model.NodeID, error) {
	id, err := strconv.ParseInt(s, 10, 32)
	return model.NodeID(id), err
}

// parseFinite decodes a float field, refusing NaN and ±Inf: neither is a
// frequency, a cost or a Δcost term, and either would poison every sum it
// enters (the DP, a ledger) for good.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = strconv.ErrRange
	}
	return v, err
}

func parsePath(h string) ([]engine.Candidate, error) {
	if strings.TrimSpace(h) == "" {
		return nil, nil
	}
	if n := strings.Count(h, ",") + 1; n > maxPathEntries {
		return nil, fmt.Errorf("httpgw: path of %d entries exceeds %d", n, maxPathEntries)
	}
	var out []engine.Candidate
	for i, part := range strings.Split(h, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if len(fields) != 4 && len(fields) != 5 {
			return nil, fmt.Errorf("httpgw: bad path entry %q", part)
		}
		// The header has no hop numbering; position assigns it.
		e := engine.Candidate{Hop: i, Tag: engine.TagNoDescriptor}
		var err error
		if e.Node, err = parseNodeID(fields[0]); err != nil {
			return nil, fmt.Errorf("httpgw: bad node id %q", fields[0])
		}
		if fields[1] != "-" {
			e.Tag = engine.TagCandidate
			if e.Freq, err = parseFinite(fields[1]); err != nil {
				return nil, fmt.Errorf("httpgw: bad freq %q", fields[1])
			}
			if e.CostLoss, err = parseFinite(fields[2]); err != nil {
				return nil, fmt.Errorf("httpgw: bad loss %q", fields[2])
			}
		}
		if e.Link, err = parseFinite(fields[3]); err != nil {
			return nil, fmt.Errorf("httpgw: bad link cost %q", fields[3])
		}
		if len(fields) == 5 {
			// A malformed generation rejects the whole path entry — unlike
			// the zero-defaulted request floor, a garbled piggyback entry
			// signals a corrupted header, not a coherency-unaware peer.
			if e.Gen, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
				return nil, fmt.Errorf("httpgw: bad generation %q", fields[4])
			}
		}
		out = append(out, e)
	}
	return out, nil
}

func formatEntry(e engine.Candidate) string {
	var s string
	if e.Tag != engine.TagCandidate {
		s = strconv.Itoa(int(e.Node)) + ";-;-;" + fmtFloat(e.Link)
	} else {
		s = strconv.Itoa(int(e.Node)) + ";" + fmtFloat(e.Freq) + ";" + fmtFloat(e.CostLoss) + ";" + fmtFloat(e.Link)
	}
	if e.Gen != 0 {
		s += ";" + strconv.FormatUint(e.Gen, 10)
	}
	return s
}

// decideObserved is the decision step shared by the cache nodes and the
// origin: the §2.2 DP (engine.Decide) over piggybacked path entries (ordered
// from the client's first cache upward, as accumulated on the wire) with the
// decision site's auditor threaded through (Theorem 2 and optimality checks)
// and the decide span landed in the request's trace (tsp and parent,
// nil-safe). It returns the chosen nodes in ascending order, each with the
// engine's predicted Δcost term — the decision site cannot reach the other
// processes' ledgers, so the claims ship downstream and every placing node
// books its own. A decision that chooses nothing — every front-node hit —
// allocates nothing.
func decideObserved(entries []engine.Candidate, obj model.ObjectID, now float64,
	aud *audit.Auditor, serv model.NodeID,
	tsp *span.Trace, parent span.SpanID) []engine.Prediction {
	opts := engine.DecideOptions{
		ClampMonotone: true,
		Audit:         aud,
		Obj:           obj,
		Now:           now,
		Span:          tsp,
		SpanParent:    parent,
	}
	if len(entries) > 0 {
		// Only a decision with candidates can choose any; the slice header
		// escapes, so an empty one is not worth a heap cell per hit.
		opts.Predicted = new([]engine.Prediction)
	}
	engine.Decide(entries, opts, engine.ServePoint{Hop: len(entries), Node: serv})
	if opts.Predicted == nil {
		return nil
	}
	place := *opts.Predicted
	sort.Slice(place, func(i, j int) bool { return place[i].Node < place[j].Node })
	return place
}

// objectID derives the object identity from a request path. Numeric
// /objects/<id> paths map directly (the synthetic-workload convention);
// any other path is identified by a stable 63-bit FNV-1a hash, which lets
// the gateway front arbitrary content trees (identity only needs to be
// consistent across the chain — every node hashes identically).
func objectID(r *http.Request) (model.ObjectID, error) {
	const prefix = "/objects/"
	if strings.HasPrefix(r.URL.Path, prefix) {
		if id, err := strconv.Atoi(r.URL.Path[len(prefix):]); err == nil {
			if id < 0 {
				return 0, fmt.Errorf("httpgw: negative object id")
			}
			return model.ObjectID(id), nil
		}
	}
	if r.URL.Path == "" || r.URL.Path == "/" {
		return 0, fmt.Errorf("httpgw: no object in path %q", r.URL.Path)
	}
	h := fnv.New64a()
	h.Write([]byte(r.URL.Path)) //nolint:errcheck
	return model.ObjectID(h.Sum64() >> 1), nil
}

// ServeHTTP implements the node's request/response protocol: decode, the
// engine's up step, the upstream exchange, the engine's down step, encode —
// at the origin, decode, decide, encode. When the node, or the Origin it
// serves, is its server's whole handler, the first plaintext HTTP/1.1
// keep-alive request without a body net/http hands it on a connection is
// answered from the node's own loop, with every later one (hop.go). Such a
// connection is no longer net/http's: the server's Shutdown closes it, its
// Close does not.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, _ := r.Context().Value(servedKey{}).(int)
	if kind == servedHTTP && n.hops.accept(w, r, n) {
		return
	}
	n.served[kind].Add(1)
	obj, err := objectID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	now := n.Clock()
	if n.serveControl(w, r, now) {
		return
	}
	if h := n.reqHist; h != nil {
		start := n.Clock()
		defer func() { h.Record(n.Clock() - start) }()
	}
	g, ok := n.decodeGet(w, r, obj, now)
	if !ok {
		return
	}
	// Span tracing: the edge node mints the trace, inner hops join the
	// context the downstream forwarded. Collect runs on every exit —
	// tail-sampling decides there whether the local spans reach the ring.
	g.tsp, g.parent = n.beginSpan(g.spanCtx, now)
	if g.tsp != nil {
		defer func() { n.tracer.Collect(g.tsp, n.Clock(), n.ringOf) }()
	}
	// A reassembly whose pinned generation was overtaken before its first
	// payload byte starts the GET over, its marker forgotten.
	for restarts := 0; n.serveGet(w, r, &g, restarts); restarts++ {
	}
}

// serveControl answers the control endpoints, every path under /cascade/,
// and reports whether r asked for one. An unknown one is 404, never an
// object. The origin reports no stats, and its one admin endpoint is the
// authority's.
func (n *Node) serveControl(w http.ResponseWriter, r *http.Request, now float64) bool {
	p, ok := strings.CutPrefix(r.URL.Path, "/cascade/")
	if !ok {
		return false
	}
	switch {
	case p == "metrics":
		n.MetricsHandler().ServeHTTP(w, r)
	case p == "debug/spans":
		writeJSON(w, http.StatusOK, n.DumpSpans())
	case p == "health":
		n.serveHealth(w)
	case n.origin != nil && p == "admin/invalidate":
		n.origin.serveInvalidate(w, r)
	case n.origin == nil && p == "stats":
		n.serveStats(w)
	case n.origin == nil && strings.HasPrefix(p, "admin/"):
		n.serveAdmin(w, r, now)
	default:
		http.NotFound(w, r)
	}
	return true
}

// getReq is one GET as the node decoded it; it holds across reassembly
// restarts.
type getReq struct {
	// obj is the identity the node caches, base the one writers name: a
	// segment request's object is one slice of base.
	obj, base model.ObjectID
	seg       segInfo
	// gen is the request's X-Cascade-Gen: its read floor (ModeCAS: the
	// generation the response must meet or beat) — or, on a segment
	// request, the generation its reassembly pinned, which a copy must
	// equal.
	gen     uint64
	entries []engine.Candidate // the piggybacked path below this node
	spanCtx span.Ctx           // the trace context that arrived with it
	now     float64

	tsp    *span.Trace
	parent span.SpanID
}

// hop is the node's index on the request's path: the hops below it.
func (g *getReq) hop() int { return len(g.entries) }

// decodeGet reads a GET's protocol headers, refusing with 400 what it
// cannot use.
func (n *Node) decodeGet(w http.ResponseWriter, r *http.Request, obj model.ObjectID, now float64) (g getReq, ok bool) {
	// A segment request (Range + X-Cascade-Segment) targets one slice of a
	// large object; the slice is a first-class object to the protocol, so
	// the identity is rewritten and the request proceeds exactly as for any
	// other object — except in matters of freshness, which stay the base
	// object's: writers name the base, so generations and floors are read
	// under base.
	seg, err := parseSegmentRequest(r.Header)
	if err != nil {
		n.badSegment.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return g, false
	}
	g.obj, g.base, g.seg, g.now = obj, obj, seg, now
	if seg.on {
		g.obj = store.SegmentID(obj, seg.idx)
	}
	// A malformed generation is counted, then zero-defaulted explicitly — a
	// garbled floor weakens freshness, never availability.
	if g.gen, ok = parseGen(r.Header.Get(HeaderGen)); !ok {
		n.badGen.Add(1)
	}
	// The piggybacked path is decoded once, ahead of every protocol step: a
	// malformed or over-long one is refused before it can cost a lookup, a
	// decision or a span — and only a path that decoded cleanly contributes
	// the span context the node joins.
	if g.entries, g.spanCtx, err = parseIncomingPath(r.Header); err != nil {
		n.badPath.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return g, false
	}
	return g, true
}

// hop is the node as the engine's steps see it.
func (n *Node) hop() engine.Hop { return engine.Hop{St: n.st, Tier: n.bodies} }

// serveGet answers a GET: the origin from its source, a cache node by its
// up step, from its copy or through the upstream exchange. It reports
// whether the GET must start over (serveSegmented).
func (n *Node) serveGet(w http.ResponseWriter, r *http.Request, g *getReq, restarts int) (restart bool) {
	if n.origin != nil {
		n.origin.serve(w, r, n, g)
		return false
	}
	for {
		// Draining or departed: pure relay, no protocol participation. The
		// check shares the step's fence, so no request reads the store on
		// one side of a drain and takes protocol steps on the other.
		e := n.fence.Enter()
		if !n.active() {
			n.fence.Exit(e)
			return n.exchange(w, r, g, nil, nil, restarts)
		}
		if m, ok := n.rememberedMarker(g); ok {
			n.fence.Exit(e)
			lk := g.tsp.Start(span.PhaseLookup, n.ID, 0, g.parent, g.now)
			g.tsp.End(lk, n.Clock())
			return n.serveSegmented(w, r, g.base, m, true, restarts, g.tsp)
		}
		q := engine.Req{
			Obj: g.obj, FloorObj: g.base, Now: g.now, Clock: n.Clock,
			Floor: g.gen, Pin: g.gen, Pinned: g.seg.on, MaxAge: n.TTL,
			Trace: g.tsp, Audit: n.auditor,
		}
		var up engine.UpResult
		engine.Up(n.hop(), &q, g.hop(), n.UpCost, g.parent, &up)
		n.fence.Exit(e)
		switch {
		case up.Hit:
			n.hits.Add(1)
			if up.FromTier {
				n.spillHits.Add(1)
			}
			if up.Promoted {
				n.promotions.Add(1)
			}
			n.serveHit(w, r, g, up.Gen, &up)
			return false
		case !up.Revalidate:
			n.misses.Add(1)
			return n.exchange(w, r, g, &q, &up, restarts)
		}
		// Older than Node.TTL: revalidate upstream with the stored
		// validator. A 304 refreshes the copy; anything else drops it, and
		// the step runs again, a miss.
		if n.revalidate(w, r, g, &up) {
			return false
		}
	}
}

// rememberedMarker returns the segmented marker this client-facing node
// remembers for a plain GET's object, while it is not below the read floor
// nor older than Node.TTL; a stale one is dropped, and the GET walks
// upstream for its successor.
func (n *Node) rememberedMarker(g *getReq) (segMarker, bool) {
	if g.hop() != 0 || g.seg.on {
		return segMarker{}, false
	}
	n.markerMu.Lock()
	defer n.markerMu.Unlock()
	m, ok := n.markers[g.base]
	if !ok {
		return m, false
	}
	if m.gen >= n.st.ReadFloor(g.base, g.gen) && !(n.TTL > 0 && g.now-m.fetched > n.TTL) {
		return m, true
	}
	delete(n.markers, g.base)
	return segMarker{}, false
}

// serveHit answers from the node's own copy, at generation gen, as the
// origin answers from its source: the decision over the path below it, then
// a 304 when the request's If-None-Match names the copy's validator, else
// the bytes.
func (n *Node) serveHit(w http.ResponseWriter, r *http.Request, g *getReq, gen uint64, up *engine.UpResult) {
	n.decide(w.Header(), g, decision{gen: gen}, up.Meta.ETag)
	if up.Meta.ETag != "" && r.Header.Get("If-None-Match") == up.Meta.ETag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, g.seg, up.Body)
}

// decide writes the head of an answer from the serving point — a node's
// copy, or the origin's source: the decision over the path below, with d's
// coherency payload, a fresh penalty counter, the serving node and the
// validator.
func (n *Node) decide(h http.Header, g *getReq, d decision, etag string) {
	d.place = decideObserved(g.entries, g.obj, g.now, n.auditor, n.ID, g.tsp, g.parent)
	d.encode()
	writeDecision(h, 0, d)
	h.Set(HeaderHit, nodeName(n.ID))
	if etag != "" {
		h.Set("ETag", etag)
	}
}

// exchange forwards a GET the node did not answer and finishes it with the
// answer. q and up are the node's up step; without them the node is routed
// around (draining or departed): it appends a "no descriptor" path entry so
// the decision sees only its link cost, forwards the trace context, the
// validator and the read floor as they came, records no spans and takes no
// down step — the wire image of the cluster routing around a hop. One
// thing a routed-around hop still does itself: when it is the client-facing
// hop and the answer is a segmented marker, it reassembles — the client
// asked for a body. It reports whether the GET must start over.
func (n *Node) exchange(w http.ResponseWriter, r *http.Request, g *getReq, q *engine.Req, up *engine.UpResult, restarts int) (restart bool) {
	var tsp *span.Trace
	var upsp span.SpanID
	entry, ctx := engine.Candidate{Node: n.ID, Tag: engine.TagNoDescriptor, Link: n.UpCost}, g.spanCtx
	if q != nil {
		// The up span covers the whole exchange; the context forwarded on
		// the wire parents the next hop's spans on it.
		tsp, upsp = g.tsp, up.Span
		entry, ctx = up.Cand, tsp.Ctx(upsp)
	}
	fail := func() {
		tsp.Force(span.FlagError)
		tsp.End(upsp, n.Clock())
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.Upstream+r.URL.Path, nil)
	if err != nil {
		fail()
		http.Error(w, err.Error(), http.StatusBadGateway)
		return false
	}
	writePath(req.Header, append(g.entries, entry), ctx)
	if tag := r.Header.Get("If-None-Match"); tag != "" && q == nil {
		req.Header.Set("If-None-Match", tag)
	}
	switch {
	case g.seg.on:
		forwardSegment(req.Header, r.Header)
	case q == nil:
		if fl := r.Header.Get(HeaderGen); fl != "" {
			req.Header.Set(HeaderGen, fl)
		}
	case up.Floor > 0:
		// The read floor, raised to this node's own: an upstream hit may
		// not serve below what any hop on the path knows to be invalidated.
		req.Header.Set(HeaderGen, strconv.FormatUint(up.Floor, 10))
	}

	resp, err := n.fetchUpstream(req)
	if err != nil {
		// Upstream chain unreachable: fall back to the origin when one is
		// configured, else fail conventionally.
		fail()
		if n.OriginURL == "" {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return false
		}
		return n.serveDegraded(w, r, g, tsp, restarts)
	}
	defer resp.Body.Close()
	// A degraded answer keeps its marker on the way down; it carries no
	// decision, and no hop takes a down step on it (downStep).
	if resp.Header.Get(headerDegraded) != "" {
		w.Header().Set(headerDegraded, "1")
	}
	if !g.seg.on && resp.StatusCode == http.StatusOK && resp.Header.Get(HeaderSegmented) != "" {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		tsp.End(upsp, n.Clock())
		return n.segmentedAnswer(w, r, g, resp, tsp, restarts)
	}
	if resp.StatusCode != http.StatusOK && !(g.seg.on && resp.StatusCode == http.StatusPartialContent) {
		fail()
		w.WriteHeader(resp.StatusCode)
		copyStream(w, resp.Body) //nolint:errcheck
		return false
	}
	// prev is the counter as it left the upstream node — the miss-penalty
	// audit's reference value. A decision that does not parse is counted
	// here, at the first hop to read it, and the answer goes on as one
	// without a decision: nothing placed, claimed or invalidated, prev 0,
	// and only this hop's counter below, so no hop there counts it again.
	prev, dec, ok := parseDecision(resp.Header.Get(HeaderDecision))
	if !ok {
		n.badDecision.Add(1)
	}
	// A malformed generation is counted, then zero-defaulted.
	if dec.gen, ok = parseGen(resp.Header.Get(HeaderGen)); !ok {
		n.badGen.Add(1)
	}
	n.finishMiss(w, resp, g, q, upsp, dec, prev)
	return false
}

// segmentedAnswer handles an upstream's bodiless segmented marker (no
// placement anywhere — the base identity carries no protocol state). A
// mid-chain hop relays it and its generation toward the client; the
// client-facing hop validates and — unless the marker came degraded —
// remembers them, fans out the per-segment Range requests through its own
// protocol stack and reassembles. It reports whether the GET must start
// over.
func (n *Node) segmentedAnswer(w http.ResponseWriter, r *http.Request, g *getReq, resp *http.Response, tsp *span.Trace, restarts int) bool {
	if g.hop() > 0 {
		relayMarker(w.Header(), resp.Header)
		return false
	}
	m, ok := n.acceptMarker(w, resp.Header, n.Clock())
	if !ok {
		tsp.Force(span.FlagError)
		return false
	}
	if w.Header().Get(headerDegraded) == "" {
		n.rememberMarker(g.base, m)
	}
	return n.serveSegmented(w, r, g.base, m, false, restarts, tsp)
}

// finishMiss takes the node's down step on an upstream answer — if it took
// the up step — and relays the answer on. A node the decision chose must
// hold the bytes anyway, so it reads them whole and the step stores them;
// otherwise they stream through — socket to socket in the kernel when they
// arrive on an upstream client's connection, else through a pooled buffer —
// so a relay hop never holds a full object.
func (n *Node) finishMiss(w http.ResponseWriter, resp *http.Response, g *getReq, q *engine.Req, upsp span.SpanID, dec decision, prev float64) {
	mp := prev + n.UpCost
	term, place := dec.termFor(n.ID)
	place = place && q != nil
	var body []byte
	if place {
		var err error
		if body, err = readBody(resp, n.capacity); err != nil {
			q.Trace.Force(span.FlagError)
			q.Trace.End(upsp, n.Clock())
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
	}
	if q != nil {
		mp = n.downStep(q, g.hop(), upsp, dec, term, place, prev, mp, body, resp)
	}
	writeMissTail(w.Header(), resp, dec, mp)
	if body != nil {
		writeBody(w, g.seg, body)
		return
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	if resp.StatusCode == http.StatusPartialContent {
		if cr := resp.Header.Get("Content-Range"); cr != "" {
			w.Header().Set("Content-Range", cr)
		}
		w.WriteHeader(http.StatusPartialContent)
	}
	n.relay(w, resp.Body)
}

// downStep takes the engine's down step for a miss inside the drain fence
// and returns the penalty counter the response carries on. A drain that
// landed while the fetch was in flight — the fetch runs outside the fence,
// so a drain can run from inside it — routes the node around instead: the
// invalidation tail still lands, but no placement, no ledger claim, the
// link folded into the counter. So does a degraded answer: its bytes came
// from the origin, not through the upstream, and update no cache state.
func (n *Node) downStep(q *engine.Req, hop int, upsp span.SpanID, dec decision, term float64, place bool, prev, mp float64, body []byte, resp *http.Response) float64 {
	q.Now, q.Gen, q.Tail, q.Head = n.Clock(), dec.gen, dec.inval, dec.invHead
	e := n.fence.Enter()
	defer n.fence.Exit(e)
	if !n.active() || resp.Header.Get(headerDegraded) != "" {
		n.hop().Land(q, hop, upsp)
		q.Trace.End(upsp, n.Clock())
		return mp
	}
	q.Size = max(resp.ContentLength, 0)
	if place {
		q.Size = int64(len(body))
		// The decision site shipped this node's predicted Δcost term next to
		// the placement instruction; book the claim here, where the realized
		// savings will accumulate, so the node's ledger is self-contained.
		// Booked per instruction, before the step — a store that cannot make
		// room shows up as a place failure against a recorded prediction,
		// exactly the drift the ledger exists to expose.
		n.ledger.RecordPrediction(n.ID, term)
	}
	out := engine.Down(n.hop(), q, hop, upsp, place, prev, mp, body, resp.Header.Get("ETag"))
	if out.Placed {
		n.inserts.Add(1)
	}
	return out.MP
}

// writeMissTail writes what every miss tail — placed, relayed, or passed
// through a routed-around hop — forwards to the hop below: the decision as
// it arrived behind the outgoing penalty counter, the serving node and the
// upstream validator (a hop that stores the body without it cannot
// revalidate conditionally).
func writeMissTail(h http.Header, resp *http.Response, dec decision, mp float64) {
	writeDecision(h, mp, dec)
	h.Set(HeaderHit, resp.Header.Get(HeaderHit))
	if tag := resp.Header.Get("ETag"); tag != "" {
		h.Set("ETag", tag)
	}
}

// relay streams a body this node only passes on (copyStream) and counts its
// bytes under the path the relay took.
func (n *Node) relay(w io.Writer, body io.Reader) {
	// A short or failed relay ends the response short, which is how the
	// client learns of it.
	k, _ := copyStream(w, body)
	if b, ok := body.(*hopBody); ok && b.spliced {
		n.relayedKernel.Add(k)
	} else {
		n.relayedCopy.Add(k)
	}
}

// revalidate issues a conditional GET upstream for the copy up, older than
// Node.TTL, and reports whether it answered: from the copy on a 304, as a
// hit answers (serveHit), or — stale-if-error, with no decision — while the
// upstream is unreachable. Anything else drops the copy, and the caller
// takes the step again, a miss.
func (n *Node) revalidate(w http.ResponseWriter, r *http.Request, g *getReq, up *engine.UpResult) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.Upstream+r.URL.Path, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return true
	}
	if up.Meta.ETag != "" {
		req.Header.Set("If-None-Match", up.Meta.ETag)
	}
	if g.seg.on {
		forwardSegment(req.Header, r.Header)
	}
	resp, err := n.fetchUpstream(req)
	if err == nil {
		defer resp.Body.Close()
	}
	gen, size := up.Meta.Gen, int64(len(up.Body))
	switch {
	case err != nil:
		// Serve the old copy marked degraded, as an explicit freshness
		// decision: the stale-hit record carries N:0 (served by policy,
		// not dropped), so degraded serving is auditable, not silent.
		n.degraded.Add(1)
		n.hits.Add(1)
		n.st.Touch(g.obj, gen, size, g.now)
		if v := n.view; v != nil {
			v.Metrics().StaleHit()
		}
		e := span.Event(span.PhaseStaleHit, n.ID, g.now)
		e.Trace, e.Obj, e.A = g.tsp.ID(), g.obj, float64(gen)
		n.spans.Add(e)
		h := w.Header()
		h.Set(headerDegraded, "1")
		h.Set(HeaderDecision, "0")
		h.Set(HeaderHit, nodeName(n.ID))
		if gen != 0 {
			h.Set(HeaderGen, strconv.FormatUint(gen, 10))
		}
		if up.Meta.ETag != "" {
			h.Set("ETag", up.Meta.ETag)
		}
		writeBody(w, g.seg, up.Body)
		return true
	case resp.StatusCode != http.StatusNotModified:
		// The copy is outdated. Its bytes go with it, unless a placement
		// stored fresh ones since.
		n.st.Demote(g.obj, g.now)
		n.bodies.DeleteUnless(g.obj, n.st.Contains)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return false
	default:
		// The 304 restamps the bytes' validation time, tier lock then shard
		// lock as the steps take them, and only while the resident copy is
		// still the one up read: a placement that landed since keeps its
		// own bytes.
		n.revalidations.Add(1)
		n.hits.Add(1)
		meta := up.Meta
		meta.Fetched = g.now
		n.bodies.Admit(g.obj, up.Body, meta, false, func() bool { return n.st.Touch(g.obj, gen, size, g.now) })
		if v := n.view; v != nil {
			v.Metrics().Revalidation()
		}
		e := span.Event(span.PhaseRevalidate, n.ID, g.now)
		e.Trace, e.Obj, e.A, e.N = g.tsp.ID(), g.obj, float64(gen), 1
		n.spans.Add(e)
		n.serveHit(w, r, g, gen, up)
		return true
	}
}

// serveStats reports the node's counters and occupancy as JSON, for
// operational monitoring of a deployed gateway.
func (n *Node) serveStats(w http.ResponseWriter) {
	cs := n.state()
	bs := n.bodies.Stats()
	badHeaders := n.badDecision.Load() + n.badSegment.Load() + n.badGen.Load() + n.badPath.Load()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w,
		"{\"node\":%d,\"upstream\":%q,\"membership\":%q,\"health\":%q,\"upstream_health\":%q,\"epoch\":%d,\"shards\":%d,\"hits\":%d,\"misses\":%d,\"inserts\":%d,\"revalidations\":%d,\"objects\":%d,\"used_bytes\":%d,\"capacity_bytes\":%d,\"dcache_descriptors\":%d,\"retries\":%d,\"degraded\":%d,\"spill_objects\":%d,\"spill_used_bytes\":%d,\"spill_bytes_total\":%d,\"spill_hits\":%d,\"promotions\":%d,\"bad_headers\":%d,\"reassembly\":{\"ok\":%d,\"marker_hit\":%d,\"restarted\":%d,\"truncated\":%d,\"refused\":%d}}\n",
		n.ID, n.Upstream, cs.Member, cs.Health, cs.UpstreamHealth, cs.Epoch, n.st.ShardCount(),
		n.hits.Load(), n.misses.Load(), n.inserts.Load(), n.revalidations.Load(),
		n.st.StoreLen(), n.st.Used(), n.st.Capacity(), n.st.DCacheLen(),
		n.retries.Load(), n.degraded.Load(),
		bs.DiskObjects, bs.DiskBytes, bs.SpillBytesTotal, n.spillHits.Load(), n.promotions.Load(), badHeaders,
		n.reassembly[reassemblyOK].Load(), n.reassembly[reassemblyMarkerHit].Load(), n.reassembly[reassemblyRestarted].Load(),
		n.reassembly[reassemblyTruncated].Load(), n.reassembly[reassemblyRefused].Load())
}

// Contains reports whether the node currently caches the object.
func (n *Node) Contains(obj model.ObjectID) bool { return n.st.Contains(obj) }

// nodeSnapshot is the gob-serialized persistent state of a gateway node.
type nodeSnapshot struct {
	Descriptors []cache.DescriptorSnapshot
	Bodies      map[model.ObjectID][]byte
}

// SaveSnapshot writes the node's cached objects (descriptors and payloads)
// so a restarted gateway can warm-start with LoadSnapshot.
func (n *Node) SaveSnapshot(w io.Writer) error {
	snap := nodeSnapshot{
		Descriptors: n.st.Snapshot(),
		Bodies:      make(map[model.ObjectID][]byte),
	}
	n.bodies.ForEachMemory(func(id model.ObjectID, b []byte, _ store.Meta) {
		snap.Bodies[id] = append([]byte(nil), b...)
	})
	return gob.NewEncoder(w).Encode(snap)
}

// LoadSnapshot restores previously saved cache state into the (typically
// fresh) node at time now. It reads at most the node's byte budget, for
// the payloads, plus maxAbsorbBytes, for the descriptors (docs/PROTOCOL.md):
// a longer stream is refused, and nothing of it restored. Entries that no
// longer fit are skipped; entries whose payload is missing or disagrees
// with the descriptor's size, and descriptors cache.RestoreDescriptor
// refuses, are dropped.
func (n *Node) LoadSnapshot(r io.Reader, now float64) (restored int, err error) {
	limit := n.capacity + maxAbsorbBytes
	lr := &io.LimitedReader{R: r, N: limit}
	var snap nodeSnapshot
	if err := gob.NewDecoder(lr).Decode(&snap); err != nil {
		if lr.N == 0 {
			return 0, fmt.Errorf("httpgw: snapshot longer than %d bytes", limit)
		}
		return 0, err
	}
	for _, ds := range snap.Descriptors {
		body, ok := snap.Bodies[ds.ID]
		if !ok || int64(len(body)) != ds.Size {
			continue
		}
		// The snapshot predates the validator split; rederive the ETag from
		// the bytes (etagOf is deterministic). The generation rides in the
		// descriptor snapshot, so a restored copy still validates against
		// floors raised while the node was down. Descriptor and bytes land
		// together, as a placement's do.
		meta := store.Meta{ETag: etagOf(body), Fetched: now, Gen: ds.Gen}
		n.bodies.Admit(ds.ID, body, meta, false, func() bool {
			ok = n.st.RestoreInsert(ds, now)
			return ok
		})
		if ok {
			restored++
		}
	}
	return restored, nil
}
