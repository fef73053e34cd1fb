package httpgw

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// maxPathEntries bounds every list a peer can put on the wire: the hop
// candidates of X-Cascade-Path and the placement, prediction and
// invalidation lists of a decision. The §2.2 DP is quadratic in the
// candidate count and the parsers allocate and loop by the entries they
// find, so an unbounded list lets one header pin a handler for seconds.
// Routes internal/topology generates are a dozen hops at most and the
// invalidation tail is coherency.TailK (32) entries; 256 is far above both.
const maxPathEntries = 256

// predictTerm pairs a chosen node with the DP's predicted Δcost term for
// its placement — the structured form of one headerPredict entry, as the
// engine hands it out.
type predictTerm = engine.Prediction

// decision is one parsed placement decision: the §2.2 DP's output plus the
// coherency payloads that ride beside it.
type decision struct {
	place   []model.NodeID
	predict []predictTerm
	// gen is the served copy's coherency generation (X-Cascade-Gen); zero
	// when the serving side runs no coherency.
	gen uint64
	// invHead and inval are the origin's invalidation-log head and recent
	// tail (X-Cascade-Inval), applied at every hop before its DownStep so a
	// same-response placement at the pre-write generation is caught by the
	// freshly raised floor.
	invHead uint64
	inval   []coherency.Invalidation
	// badGen / badInval report malformed coherency headers: zero-defaulted
	// (gen) or dropped (inval) explicitly, counted by the caller in
	// cascade_gw_bad_header_total.
	badGen, badInval bool
}

// parseIncomingPath reads the request's hop candidates (X-Cascade-Path) and
// the downstream hop's span context (X-Cascade-TraceCtx; zero: it runs no
// tracing). The context is returned only beside a path that parsed, so a
// refused request can never plant a trace ID in the receiver's span ring.
func parseIncomingPath(h http.Header) ([]engine.Candidate, span.Ctx, error) {
	entries, err := parsePath(h.Get(headerPath))
	if err != nil {
		return nil, span.Ctx{}, err
	}
	ctx, _ := span.ParseCtx(h.Get(headerTraceCtx))
	return entries, ctx, nil
}

// writePath emits hop candidates upstream. ctx is the requester's span trace
// context (zero: no tracing, no header).
func writePath(h http.Header, entries []engine.Candidate, ctx span.Ctx) {
	if ctx.Valid() {
		h.Set(headerTraceCtx, ctx.String())
	}
	parts := make([]string, len(entries))
	for i, e := range entries {
		parts[i] = formatEntry(e)
	}
	h.Set(headerPath, strings.Join(parts, ","))
}

// parseDecision reads a response's placement decision. The placement set
// comes back in wire order (ascending — formatPlacement sorts) and the
// predictions keep their ascending-node order, so re-encoding is
// byte-identical. A list longer than maxPathEntries fails the whole decision
// before anything is split or allocated by its length.
func parseDecision(h http.Header) (decision, error) {
	for _, name := range [...]string{HeaderPlace, headerPredict, headerInval} {
		if n := strings.Count(h.Get(name), ",") + 1; n > maxPathEntries {
			return decision{}, fmt.Errorf("httpgw: %s of %d entries exceeds %d", name, n, maxPathEntries)
		}
	}
	d := decision{
		place:   parsePlacementList(h.Get(HeaderPlace)),
		predict: parsePredictTerms(h.Get(headerPredict)),
	}
	var ok bool
	if d.gen, ok = parseGen(h.Get(HeaderGen)); !ok {
		d.badGen = true
	}
	if v := h.Get(headerInval); v != "" {
		if head, tail, ok := parseInval(v); ok {
			d.invHead, d.inval = head, tail
		} else {
			d.badInval = true
		}
	}
	return d, nil
}

// writeDecision emits a placement decision and its coherency payload
// downstream.
func writeDecision(h http.Header, d decision) {
	h.Set(HeaderPlace, formatPlacement(d.place))
	if len(d.predict) > 0 {
		h.Set(headerPredict, formatPredictTerms(d.predict))
	}
	if d.gen != 0 {
		h.Set(HeaderGen, strconv.FormatUint(d.gen, 10))
	}
	if len(d.inval) > 0 || d.invHead != 0 {
		h.Set(headerInval, formatInval(d.invHead, d.inval))
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
