package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The harness records spans around the calls into each layer
// from outside the program: one client.request per traced GET, one handler
// span per hop the request reaches, one roundtrip span per upstream
// exchange a hop makes.
const (
	spanClient    = "client.request"
	spanOrigin    = "httpgw.origin.handler"
	spanClusterOp = "runtime.get"
	spanSimOp     = "sim.process"
)

func spanHandler(hop int) string   { return "httpgw.hop" + strconv.Itoa(hop) + ".handler" }
func spanRoundTrip(hop int) string { return "loopback.hop" + strconv.Itoa(hop) + ".roundtrip" }

// spanHeader carries the parent span ID to the next hop's handler wrapper,
// which strips it before the program sees the request.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     uint32
	Parent uint32 // 0 = root
	Name   string
	Start  int64 // ns since the recorder's epoch (monotonic clock)
	End    int64
	Note   string // client.request: who served it
}

// recorder buffers spans in memory; nothing is written until the measured
// clock has stopped.
type recorder struct {
	epoch time.Time
	next  atomic.Uint32
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64    { return int64(time.Since(r.epoch)) }
func (r *recorder) newID() uint32 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type spanCtxKey struct{}

// wrapHandler records one handler span per traced request. Parentage
// arrives on spanHeader (set by the client or by the previous hop's
// transport wrapper) and leaves on the request context, which the program
// hands to its upstream requests.
func (r *recorder) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		v := req.Header.Get(spanHeader)
		if v == "" {
			h.ServeHTTP(w, req)
			return
		}
		req.Header.Del(spanHeader)
		parent, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		id := r.newID()
		start := r.now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanCtxKey{}, id)))
		r.add(span{ID: id, Parent: uint32(parent), Name: name, Start: start, End: r.now()})
	})
}

// tracedTransport wraps the transport a hop's upstream client uses. The
// exchange span runs from the send to the last body byte read, so a
// handler's self time is what it spends outside its upstream exchanges.
type tracedTransport struct {
	rec   *recorder
	name  string
	base  http.RoundTripper
	dials atomic.Int64
	trace *httptrace.ClientTrace
}

func newTracedTransport(rec *recorder, name string, base http.RoundTripper) *tracedTransport {
	t := &tracedTransport{rec: rec, name: name, base: base}
	t.trace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			t.dials.Add(1)
		}
	}}
	return t
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanCtxKey{}).(uint32)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := t.rec.newID()
	out := req.Clone(httptrace.WithClientTrace(req.Context(), t.trace))
	out.Header.Set(spanHeader, strconv.FormatUint(uint64(id), 10))
	s := span{ID: id, Parent: parent, Name: t.name, Start: t.rec.now()}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends the exchange span at the first read error (io.EOF on a
// complete body) or at Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.rec.now()
		b.rec.add(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// selfTimes returns, per span name, every span's duration minus the part
// its children cover (µs).
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.End - s.Start - children[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// coverChildren extends every parent's end to its latest child's end. A
// hop's handler reads its end time after its last byte may already have
// reached the caller (a Content-Length body is complete before the handler
// returns), so on a busy core a child can appear to outlive its parent by a
// scheduling delay; the parent cannot in fact have finished first. It
// returns how many spans it extended.
func coverChildren(spans []span) int {
	idx := make(map[uint32]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Children start after their parents, so latest-start-first visits
	// every child before its parent.
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].Start > spans[order[b]].Start })
	extended := 0
	// One pass suffices unless two spans share a start tick; repeat until
	// nothing moves.
	for moved := true; moved; {
		moved = false
		for _, i := range order {
			p, ok := idx[spans[i].Parent]
			if ok && spans[i].End > spans[p].End {
				spans[p].End = spans[i].End
				extended++
				moved = true
			}
		}
	}
	return extended
}

// checkSpans verifies that the spans form a forest in which every
// non-root span's parent exists and contains it, and every root is a
// client (or in-process operation) span.
func checkSpans(spans []span) error {
	byID := make(map[uint32]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name != spanClient && s.Name != spanClusterOp && s.Name != spanSimOp {
				return fmt.Errorf("span %d (%s) is a root but not a request span", s.ID, s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans dumps the spans as JSON lines, ordered by start time.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start":%d,"end":%d`, s.ID, s.Parent, s.Name, s.Start, s.End)
		if s.Note != "" {
			fmt.Fprintf(w, `,"note":%q`, s.Note)
		}
		w.WriteString("}\n") //nolint:errcheck // Flush reports it
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
