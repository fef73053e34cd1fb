package httpgw

import (
	"net/http"
	"strconv"
	"strings"

	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/span"
)

// maxPathEntries bounds every list a peer can put on the wire: the hop
// candidates of X-Cascade-Path and the placement and invalidation lists of
// X-Cascade-Decision. The §2.2 DP is quadratic in the candidate count and
// the parsers allocate and loop by the entries they find, so an unbounded
// list lets one header pin a handler for seconds. Routes internal/topology
// generates are a dozen hops at most and the invalidation tail is
// coherency.TailK (32) entries; 256 is far above both.
const maxPathEntries = 256

// decision is one placement decision (§2.3), as the serving point made it
// or a hop below read it from X-Cascade-Decision, plus the served copy's
// generation, which rides beside it in X-Cascade-Gen.
type decision struct {
	// place lists the chosen nodes, ascending, each with the DP's predicted
	// Δcost term for its placement (§2.1): every placing node books its own
	// claim, since the decision site cannot reach the other processes'
	// ledgers.
	place []engine.Prediction
	// invHead and inval are the origin's invalidation-log head and recent
	// tail, applied at every hop before its DownStep so a same-response
	// placement at the pre-write generation is caught by the freshly raised
	// floor.
	invHead uint64
	inval   []coherency.Invalidation
	// rest is X-Cascade-Decision past its penalty field: encode's output at
	// the serving point, the bytes as they arrived at a hop below. Every hop
	// forwards it as it is, behind its own counter.
	rest string
	// gen is the served copy's coherency generation (X-Cascade-Gen); zero
	// when the serving side runs no coherency.
	gen uint64
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

// encode renders the decision's lists as rest: ";" and the placement, then
// ";" and the tail, trailing empty fields left out — so a decision that
// places nothing and carries no tail is empty. One buffer holds it all.
func (d *decision) encode() {
	if len(d.place) == 0 && len(d.inval) == 0 && d.invHead == 0 {
		d.rest = ""
		return
	}
	b := make([]byte, 0, 24*(1+len(d.place)+len(d.inval)))
	b = append(b, ';')
	for i, p := range d.place {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p.Node), 10)
		b = append(b, '=')
		b = strconv.AppendFloat(b, p.Term, 'g', -1, 64) // fmtFloat's bit-exact form
	}
	if len(d.inval) > 0 || d.invHead != 0 {
		b = append(b, ';')
		b = strconv.AppendUint(b, d.invHead, 10)
		b = append(b, '|')
		for i, inv := range d.inval {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, inv.Seq, 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(inv.Obj), 10)
			b = append(b, ':')
			b = strconv.AppendUint(b, inv.Gen, 10)
		}
	}
	d.rest = string(b)
}

// writeDecision emits d downstream behind miss-penalty counter mp, and the
// served generation beside it.
func writeDecision(h http.Header, mp float64, d decision) {
	pen := "0" // every serving point's counter, and no allocation for it
	if mp != 0 {
		pen = fmtFloat(mp)
	}
	h.Set(HeaderDecision, pen+d.rest)
	if d.gen != 0 {
		h.Set(HeaderGen, strconv.FormatUint(d.gen, 10))
	}
}

// parseDecision reads an X-Cascade-Decision value: prev, the counter as it
// left the hop above, and the decision, whose rest is v past the counter.
// An absent value is an answer without a decision — from a degraded fetch
// or a peer that does not speak this header — and parses to nothing. ok is
// false on a value that does not parse in full, or whose placement or tail
// holds more than maxPathEntries entries, counted before anything is split.
func parseDecision(v string) (prev float64, d decision, ok bool) {
	if v == "" {
		return 0, d, true
	}
	pen, _, _ := strings.Cut(v, ";")
	prev, err := parseFinite(pen)
	if err != nil || prev < 0 {
		return 0, decision{}, false
	}
	d.rest = v[len(pen):]
	if d.rest == "" {
		return prev, d, true
	}
	place, tail, hasTail := strings.Cut(d.rest[1:], ";")
	if strings.Count(place, ",") >= maxPathEntries || strings.Count(tail, ",") >= maxPathEntries {
		return 0, decision{}, false
	}
	if place != "" {
		d.place = make([]engine.Prediction, 0, strings.Count(place, ",")+1)
		for more := true; more; {
			var e string
			e, place, more = strings.Cut(place, ",")
			node, term, found := strings.Cut(e, "=")
			id, err1 := parseNodeID(node)
			t, err2 := parseFinite(term)
			if !found || err1 != nil || err2 != nil {
				return 0, decision{}, false
			}
			d.place = append(d.place, engine.Prediction{Node: id, Term: t})
		}
	}
	if hasTail {
		if d.invHead, d.inval, ok = parseTail(tail); !ok {
			return 0, decision{}, false
		}
	}
	return prev, d, true
}

// parseTail decodes the tail field, "head|seq:obj:gen,…"; !ok on any
// malformation. One pass, one allocation: the tail slice, sized from the
// separator count parseDecision bounded.
func parseTail(v string) (head uint64, tail []coherency.Invalidation, ok bool) {
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
	tail = make([]coherency.Invalidation, 0, strings.Count(rest, ",")+1)
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

// termFor reports whether the decision places a copy at id, and the
// predicted Δcost term it shipped for that placement.
func (d *decision) termFor(id model.NodeID) (float64, bool) {
	for _, p := range d.place {
		if p.Node == id {
			return p.Term, true
		}
	}
	return 0, false
}
