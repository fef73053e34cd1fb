package httpgw

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

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
//
// The origin's invalidation-log head and recent tail ride in the third
// field of X-Cascade-Decision ("head|seq:obj:gen,…", wire.go), piggybacked
// on origin responses PSI-style and applied at every hop before its
// DownStep.
//
// Generations, floors and the invalidation log speak in base identities
// only: a segment of a large object is stamped with its base's generation
// and validated against its base's floor, so one write of the base reaches
// every segment wherever it is cached (engine.Up, Node.serveSegmented).
//
// A malformed floor never fails a request: it zero-defaults (weakening
// freshness, not availability), counted in cascade_gw_bad_header_total.
const HeaderGen = "X-Cascade-Gen"

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
