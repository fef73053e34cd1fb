package httpgw

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"time"

	"cascade/internal/cache"
	"cascade/internal/controlplane"
	"cascade/internal/model"
	"cascade/internal/span"
)

// The gateway's control-plane surface. Each node runs a controlplane.Manager
// of its own, the one the cluster runs — there is no central registry on
// this transport: slot 0 is the node itself, whatever its ID, and slot 1 its
// upstream. The admin endpoints below are the wire form of runtime.Cluster's
// Admit/Drain/SetHealth, with the cluster's rules (a drain only from Active,
// an admit only once the drain has removed the node):
//
//	POST /cascade/admin/drain   cooperative departure: empty the cache,
//	                            spill the descriptors to the upstream's
//	                            d-cache, then serve pass-through only
//	POST /cascade/admin/admit   rejoin (empty) after a drain; 409 while
//	                            the drain still runs
//	POST /cascade/admin/absorb  receive a departing downstream's spill
//	                            (gob-encoded []cache.DescriptorSnapshot)
//	GET  /cascade/admin/health  membership + health as JSON
//	POST /cascade/admin/health?state=…  operator health override
//	GET  /cascade/health        probe endpoint: 200 while serving, 503
//	                            while draining/removed or marked down
//
// A draining or removed node stays in the chain as a pure relay: it appends
// a "-" (no-descriptor) path entry so the decision DP sees only its link
// cost, and it skips the DownStep on the way back — byte-identical to the
// cluster routing around a drained node and folding the link.

// The node's two slots in its Manager.
const (
	selfSlot model.NodeID = 0
	upSlot   model.NodeID = 1
)

// transition writes the event record of a control-plane transition,
// shaped as the cluster's (runtime.NewCluster): A is the epoch after it, N
// the membership or the health. The upstream slot's records carry B=1 (a
// record has one Node field, and both kinds of event belong to this node's
// timeline). An upstream that goes Down starts its cooldown (trial).
func (n *Node) transition(ev controlplane.Event) {
	now := n.Clock()
	e := span.Event(span.PhaseMembership, n.ID, now)
	e.A, e.N = float64(ev.Epoch), int(ev.Member)
	if ev.Kind == controlplane.EventHealthChange {
		e.Phase, e.N = span.PhaseHealth, int(ev.Health)
	}
	if ev.Node == upSlot {
		e.B = 1
		if ev.Health == controlplane.Down {
			n.trialAt.Store(math.Float64bits(now))
		}
	}
	n.spans.Add(e)
}

// Member returns the node's membership state.
func (n *Node) Member() controlplane.MemberState { return n.cp.StateOf(selfSlot) }

// active reports whether the node takes protocol steps: its membership is
// Active, one atomic load. A step checks it inside the drain fence
// (Node.fence).
func (n *Node) active() bool { return n.Member() == controlplane.Active }

// UpstreamHealth returns the upstream slot's health, as its prober and
// its upstream exchanges have judged it (Healthy until they say otherwise).
func (n *Node) UpstreamHealth() controlplane.Health { return n.cp.HealthOf(upSlot) }

// serveAdmin routes the /cascade/admin/* endpoints.
func (n *Node) serveAdmin(w http.ResponseWriter, r *http.Request, now float64) {
	switch r.URL.Path {
	case "/cascade/admin/drain":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		n.adminDrain(w, now)
	case "/cascade/admin/admit":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		n.adminAdmit(w)
	case "/cascade/admin/absorb":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		n.adminAbsorb(w, r, now)
	case "/cascade/admin/invalidate":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		n.adminInvalidate(w, r, now)
	case "/cascade/admin/health":
		n.adminHealth(w, r)
	default:
		http.Error(w, "unknown admin endpoint", http.StatusNotFound)
	}
}

// controlState is the JSON shape of the admin endpoints' replies.
type controlState struct {
	Node           int    `json:"node"`
	Upstream       string `json:"upstream"`
	Member         string `json:"membership"`
	Health         string `json:"health"`
	UpstreamHealth string `json:"upstream_health"`
	Epoch          uint64 `json:"epoch"`
	Drained        int    `json:"drained,omitempty"`
	Absorbed       int    `json:"absorbed,omitempty"`
}

func (n *Node) state() controlState {
	return controlState{
		Node:           int(n.ID),
		Upstream:       n.Upstream,
		Member:         n.Member().String(),
		Health:         n.cp.HealthOf(selfSlot).String(),
		UpstreamHealth: n.UpstreamHealth().String(),
		Epoch:          n.cp.Epoch(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// adminDrain performs the cooperative departure: hand the cached
// descriptors to the upstream's d-cache in NCL eviction order, forget the
// payloads, and switch to pass-through service. The fence is the
// cluster's (runtime.Cluster.Drain): once the node is Draining, every
// step that enters sees a relay, and the drain waits out the steps that
// entered before, so no placement lands behind it.
func (n *Node) adminDrain(w http.ResponseWriter, now float64) {
	if !n.cp.StartDrain(selfSlot) {
		writeJSON(w, http.StatusConflict, n.state())
		return
	}
	n.fence.WaitBefore(n.fence.Bump())

	snaps := n.st.DrainDescriptors(now)
	// The d-cache's history belongs to the departing identity too; the
	// interface has no clear, so swap every stripe for a fresh instance.
	n.st.ResetDCaches(nil)
	// Park the payloads on the disk tier (or drop them without one): a
	// re-admitted node can then serve spilled objects from disk instead of
	// refetching them from the origin.
	n.bodies.SpillAll()
	// A relay applies no invalidations, so what it remembered of large
	// objects cannot be checked against a floor when it is admitted again.
	n.markerMu.Lock()
	n.markers = nil
	n.markerMu.Unlock()

	absorbed := n.spill(snaps)

	n.cp.FinishDrain(selfSlot)
	st := n.state()
	st.Drained = len(snaps)
	st.Absorbed = absorbed
	writeJSON(w, http.StatusOK, st)
}

// spill posts the drained descriptors to the upstream's absorb endpoint and
// returns how many it reports absorbing (0 when there is nothing to ship or
// the upstream cannot take them — the spill is an optimization, not a
// correctness requirement: a lost descriptor only loses history).
func (n *Node) spill(snaps []cache.DescriptorSnapshot) int {
	if len(snaps) == 0 || n.Upstream == "" {
		return 0
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snaps); err != nil {
		return 0
	}
	resp, err := n.client().Post(n.Upstream+"/cascade/admin/absorb", "application/x-gob", &buf)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	var st controlState
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReplyBytes)).Decode(&st); err != nil {
		return 0
	}
	return st.Absorbed
}

// adminAdmit returns a removed node to Active service, healthy. The node
// rejoins empty — its state left with the drain. An active node, or one
// whose drain still runs, is refused with 409.
func (n *Node) adminAdmit(w http.ResponseWriter) {
	code := http.StatusOK
	if !n.cp.Admit(selfSlot) {
		code = http.StatusConflict
	}
	writeJSON(w, code, n.state())
}

// maxReplyBytes caps a JSON reply read from a peer — an absorb or an
// invalidate acknowledgment, a few hundred bytes at most (docs/PROTOCOL.md):
// a longer one fails to decode instead of growing the reader's buffer. The
// decoder's doubling buffer allocates about four times the cap in all.
const maxReplyBytes = 256 << 10

// maxAbsorbBytes caps an absorb body (docs/PROTOCOL.md): about 350,000
// descriptors of two access times each, 35 times cascadegw's default
// d-cache.
const maxAbsorbBytes = 8 << 20

// adminAbsorb receives a departing downstream's spilled descriptors and
// offers them to this node's d-cache (engine.Sharded.Absorb: objects the
// node already knows are skipped, the d-cache's eviction policy takes the
// rest). A body past maxAbsorbBytes is refused with 413, and nothing of
// it is absorbed.
func (n *Node) adminAbsorb(w http.ResponseWriter, r *http.Request, now float64) {
	var snaps []cache.DescriptorSnapshot
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, maxAbsorbBytes)).Decode(&snaps); err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "httpgw: bad absorb payload: "+err.Error(), code)
		return
	}
	// Inside the fence, like a step: a drain that starts now waits for the
	// absorbed descriptors before it empties the d-cache.
	e := n.fence.Enter()
	absorbed, ok := 0, n.active()
	if ok {
		absorbed = n.st.Absorb(snaps, now)
	}
	n.fence.Exit(e)
	st := n.state()
	if !ok {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	st.Absorbed = absorbed
	writeJSON(w, http.StatusOK, st)
}

// adminHealth reads (GET) or overrides (POST ?state=healthy|suspect|down)
// the node's advertised health. A node marked down keeps serving protocol
// traffic it receives — the override's effect is on the probe endpoint, so
// the downstream's checker routes around it, exactly like a probed failure.
func (n *Node) adminHealth(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, n.state())
	case http.MethodPost:
		h, err := controlplane.ParseHealth(r.URL.Query().Get("state"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.cp.SetHealth(selfSlot, h)
		writeJSON(w, http.StatusOK, n.state())
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// serveHealth is the probe endpoint downstream checkers poll: 200 while the
// node participates in the protocol, 503 while it is draining, removed or
// operator-marked down.
func (n *Node) serveHealth(w http.ResponseWriter) {
	code := http.StatusOK
	if !n.cp.Routable(selfSlot) {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, n.state())
}

// ProbeUpstream runs one synchronous health probe against the upstream's
// /cascade/health endpoint and feeds the outcome to the upstream slot's
// threshold machine. It returns the resulting classification. From the
// first probe on, only probes count as the upstream's successes: an
// upstream that serves but answers its probe 503 (marked down, or draining)
// must reach Down under traffic. Exported so tests (and operators' tooling)
// can drive ticks without the background loop.
func (n *Node) ProbeUpstream() controlplane.Health {
	n.probed.Store(true)
	ok := false
	if n.Upstream != "" {
		if resp, err := n.client().Get(n.Upstream + "/cascade/health"); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	return n.upProbe.Observe(n.cp, upSlot, ok)
}

// StartUpstreamHealthCheck launches the active upstream prober: every
// interval (≤ 0: the Checker's default) it probes the upstream's
// /cascade/health and walks the healthy → suspect → down machine, so a dead
// upstream is Down — and fetchUpstream fails fast to the degraded path —
// even when no request flows. The goroutine exits when stop closes.
func (n *Node) StartUpstreamHealthCheck(interval time.Duration, stop <-chan struct{}) {
	go controlplane.Every(interval, stop, func() { n.ProbeUpstream() })
}
