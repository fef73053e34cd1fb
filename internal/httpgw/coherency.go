package httpgw

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"cascade/internal/coherency"
	"cascade/internal/metrics"
	"cascade/internal/model"
)

// Coherency on the HTTP transport. The engine owns the mechanism — per-object
// generation floors in the shared coherency.NodeView, generation-guarded
// placement and promotion in the hop step, generation-validated spill
// files — and this file gives it wire form:
//
//	X-Cascade-Gen:   on a request, the client's read floor (ModeCAS: the
//	                 origin generation the response must meet or beat) —
//	                 or, beside X-Cascade-Segment, the one generation the
//	                 asker is reassembling, which is exact; on a response,
//	                 the served copy's generation — or, beside
//	                 X-Cascade-Segmented, the generation to reassemble at.
//	X-Cascade-Inval: the origin's invalidation-log head and recent tail,
//	                 "head|seq:obj:gen,…", piggybacked on origin responses
//	                 PSI-style and applied at every hop before its DownStep.
//
// Generations, floors and the invalidation log speak in base identities
// only: a segment of a large object is stamped with its base's generation
// and validated against its base's floor, so one write of the base reaches
// every segment wherever it is cached (engine.Up, Node.serveSegmented).
//
// Malformed values never fail a request: a garbled floor zero-defaults
// (weakening freshness, not availability) and a garbled tail is ignored,
// each counted in cascade_gw_bad_header_total.
const (
	HeaderGen   = "X-Cascade-Gen"
	headerInval = "X-Cascade-Inval"
)

// EnableCoherency attaches engine-native freshness to the node: one
// generation-floor view shared across every shard, the cascade_coherency_*
// metric series, and generation validation on every serving path (memory
// tier, disk spill tier, snapshot restore). Call before serving, and before
// EnableSpill so the disk tier picks up the generation-floor oracle. The
// gateway's own TTL/If-None-Match machinery keeps handling time-based
// freshness; the view's floors handle write-driven invalidation (ModePSI
// piggybacked, ModeCAS strict never-serve-stale).
func (n *Node) EnableCoherency(mode coherency.Mode) {
	if mode == coherency.ModeNone {
		return
	}
	v := coherency.NewNodeView(mode, 0)
	v.SetMetrics(coherency.NewMetrics(n.MetricsRegistry(), metrics.L("node", nodeName(n.ID))))
	n.view = v
	n.st.SetCoherency(v)
}

// CoherencyView returns the node's generation-floor view (nil until
// EnableCoherency).
func (n *Node) CoherencyView() *coherency.NodeView { return n.view }

// parseGen decodes an X-Cascade-Gen value. Absent is legitimately zero (a
// hop or client outside coherency); malformed reports !ok so the caller
// counts it and proceeds at floor zero.
func parseGen(v string) (uint64, bool) {
	if v == "" {
		return 0, true
	}
	g, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// formatInval renders the origin's invalidation-log head and tail as the
// X-Cascade-Inval value: "head|seq:obj:gen,seq:obj:gen,…". Every
// origin-served response carries one, so it is built in a single buffer
// sized for the tail rather than a string per number.
func formatInval(head uint64, tail []coherency.Invalidation) string {
	b := make([]byte, 0, 24*(1+len(tail)))
	b = strconv.AppendUint(b, head, 10)
	b = append(b, '|')
	for i, inv := range tail {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, inv.Seq, 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(inv.Obj), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, inv.Gen, 10)
	}
	return string(b)
}

// parseInval decodes an X-Cascade-Inval value; !ok on any malformation (the
// caller counts it and drops the whole batch — applying half a tail would
// advance no cursor anyway). One pass, one allocation: the tail slice, sized
// from the separator count — which is a peer's number, so it is capped here
// too, whatever parseDecision refused before calling.
func parseInval(v string) (head uint64, tail []coherency.Invalidation, ok bool) {
	h, rest, found := strings.Cut(v, "|")
	if !found {
		return 0, nil, false
	}
	head, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, nil, false
	}
	if rest == "" {
		return head, nil, true
	}
	n := strings.Count(rest, ",") + 1
	if n > maxPathEntries {
		return 0, nil, false
	}
	tail = make([]coherency.Invalidation, 0, n)
	for more := true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		seqS, objGen, ok1 := strings.Cut(part, ":")
		objS, genS, ok2 := strings.Cut(objGen, ":")
		if !ok1 || !ok2 {
			return 0, nil, false
		}
		seq, e1 := strconv.ParseUint(seqS, 10, 64)
		obj, e2 := strconv.ParseInt(objS, 10, 64)
		gen, e3 := strconv.ParseUint(genS, 10, 64)
		if e1 != nil || e2 != nil || e3 != nil || obj < 0 {
			return 0, nil, false
		}
		tail = append(tail, coherency.Invalidation{Seq: seq, Obj: model.ObjectID(obj), Gen: gen})
	}
	return head, tail, true
}

// invalidateReply is the JSON body of POST /cascade/admin/invalidate: the
// origin's new generation and log sequence for the object.
type invalidateReply struct {
	Obj int64  `json:"obj"`
	Gen uint64 `json:"gen"`
	Seq uint64 `json:"seq"`
}

// adminInvalidate is a cache node's side of the origin-driven bulk
// invalidation push: the write request chains upstream to the origin (the
// sole generation authority), and the acknowledgment unwinds back down the
// distribution tree with every hop raising its floor and dropping its stale
// copy before the caller sees the new generation — so a client that issued
// the write and immediately re-reads through the same chain cannot be
// served the old bytes.
func (n *Node) adminInvalidate(w http.ResponseWriter, r *http.Request, now float64) {
	obj, err := strconv.ParseInt(r.URL.Query().Get("obj"), 10, 64)
	if err != nil || obj < 0 {
		http.Error(w, "httpgw: bad obj parameter", http.StatusBadRequest)
		return
	}
	if n.Upstream == "" {
		http.Error(w, "httpgw: no upstream generation authority", http.StatusBadGateway)
		return
	}
	resp, err := n.client().Post(n.Upstream+"/cascade/admin/invalidate?obj="+strconv.FormatInt(obj, 10), "application/json", nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.WriteHeader(resp.StatusCode)
		copyStream(w, resp.Body) //nolint:errcheck
		return
	}
	var rep invalidateReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReplyBytes)).Decode(&rep); err != nil {
		http.Error(w, "httpgw: bad invalidate reply: "+err.Error(), http.StatusBadGateway)
		return
	}
	inv := [1]coherency.Invalidation{{Seq: rep.Seq, Obj: model.ObjectID(rep.Obj), Gen: rep.Gen}}
	// head 0: an out-of-band push must not mark intermediate log entries
	// as seen by the PSI cursor. A demoted copy's bytes leave with it, and
	// when the floor moved any held payload predates it: a disk copy goes
	// too, unless a fresh copy is resident.
	if applied, _ := n.hop().ApplyInvalidations(inv[:], 0, now, nil); applied > 0 {
		n.bodies.DeleteUnless(inv[0].Obj, n.st.Contains)
	}
	writeJSON(w, http.StatusOK, rep)
}
