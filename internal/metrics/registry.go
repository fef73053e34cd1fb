package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the operational half of the package: a lightweight metrics
// registry in the Prometheus exposition model. Instruments (counters,
// gauges, summaries) are plain atomic cells handed out once at component
// construction, so the hot path pays one atomic op per update — no map
// lookups, no locks, no allocation. The Registry is consulted only at
// scrape time, when it renders every registered series in the Prometheus
// text format (version 0.0.4, the format every Prometheus-compatible
// scraper accepts).

// Counter is a monotonically increasing value. The zero value is usable,
// but instruments are normally obtained from Registry.Counter so they are
// exported. A Counter fills one cache line: counters are allocated back to
// back at construction and bumped from many goroutines, and eight of them
// packed into one line would make every increment of one invalidate the
// other seven in every other core's cache.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be ≥ 0 for the Prometheus
// contract; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one name="value" pair attached to a series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one exported time series: a pre-rendered label set plus a
// closure emitting its sample lines at scrape time.
type series struct {
	labels string // rendered `k1="v1",k2="v2"` (no braces), may be ""
	write  func(w io.Writer, name, labels string)
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []series
	byLabels        map[string]int // labels → series index (idempotent re-registration)
}

// Registry holds registered instruments and renders them in the
// Prometheus text format. The zero value is not usable; call NewRegistry.
// Registration and scraping are safe for concurrent use; instrument
// updates never touch the registry.
type Registry struct {
	mu          sync.Mutex
	families    map[string]*family
	order       []string
	instruments map[instrumentKey]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the text-format escapes (backslash, quote,
// newline).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// register binds a series into its family, creating the family on first
// use. It returns the previously registered series index when the exact
// (name, labels) pair exists, so duplicate registration is idempotent.
func (r *Registry) register(name, help, typ, labels string, write func(io.Writer, string, string)) (existing int, fresh bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]int)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if i, dup := f.byLabels[labels]; dup {
		return i, false
	}
	f.byLabels[labels] = len(f.series)
	f.series = append(f.series, series{labels: labels, write: write})
	return len(f.series) - 1, true
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	ls := renderLabels(labels)
	if i, fresh := r.register(name, help, "counter", ls, func(w io.Writer, n, l string) {
		writeSample(w, n, l, strconv.FormatInt(c.Value(), 10))
	}); !fresh {
		// Re-registration: rebind to the live instrument by re-reading
		// the stored closure's counter. Simplest correct behaviour: keep
		// one instrument per (name, labels) pair.
		return r.counterAt(name, i)
	}
	r.noteInstrument(name, ls, c)
	return c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	ls := renderLabels(labels)
	if i, fresh := r.register(name, help, "gauge", ls, func(w io.Writer, n, l string) {
		writeSample(w, n, l, strconv.FormatInt(g.Value(), 10))
	}); !fresh {
		return r.gaugeAt(name, i)
	}
	r.noteInstrument(name, ls, g)
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for quantities the owner already tracks (queue depths, health states).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", renderLabels(labels), func(w io.Writer, n, l string) {
		writeSample(w, n, l, formatFloat(fn()))
	})
}

// CounterFunc registers a counter whose value is read at scrape time — for
// monotonic counts a component already maintains under its own lock, where
// swapping in a Counter cell would double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", renderLabels(labels), func(w io.Writer, n, l string) {
		writeSample(w, n, l, formatFloat(fn()))
	})
}

// Summary registers an atomic histogram exported as a Prometheus summary
// (quantiles 0.5/0.95/0.99) plus cumulative histogram buckets
// (_bucket{le="..."}), _sum, and _count. The quantile lines keep existing
// dashboards working; the bucket lines are what federation consumes —
// quantiles cannot be merged across nodes, bucket counts can. Only change
// points (non-empty buckets) are emitted, plus the mandatory le="+Inf";
// absent bounds carry the previous cumulative value, which Histogram.AddLe
// reconstructs exactly because every node shares one bucket ladder.
func (r *Registry) Summary(name, help string, labels ...Label) *AtomicHistogram {
	h := &AtomicHistogram{}
	ls := renderLabels(labels)
	if i, fresh := r.register(name, help, "summary", ls, func(w io.Writer, n, l string) {
		snap := h.Snapshot()
		for _, q := range [...]float64{0.5, 0.95, 0.99} {
			ql := `quantile="` + formatFloat(q) + `"`
			if l != "" {
				ql = l + "," + ql
			}
			writeSample(w, n, ql, formatFloat(snap.Quantile(q)))
		}
		bucket := func(le string, cum int64) {
			bl := `le="` + le + `"`
			if l != "" {
				bl = l + "," + bl
			}
			writeSample(w, n+"_bucket", bl, strconv.FormatInt(cum, 10))
		}
		cum := snap.Zero()
		if cum > 0 {
			// Exact zeros sort below every bucket: expose them at the
			// histogram floor so federation preserves the split.
			bucket(formatFloat(histMin), cum)
		}
		snap.ForEachBucket(func(idx int, count int64) {
			cum += count
			bucket(formatFloat(bucketUpperBound(idx)), cum)
		})
		bucket("+Inf", snap.Count())
		writeSample(w, n+"_sum", l, formatFloat(h.Sum()))
		writeSample(w, n+"_count", l, strconv.FormatInt(snap.Count(), 10))
	}); !fresh {
		return r.summaryAt(name, i)
	}
	r.noteInstrument(name, ls, h)
	return h
}

// instruments maps (family, series index) back to the live instrument so
// duplicate registrations return the original instead of a dead twin.
type instrumentKey struct {
	name   string
	labels string
}

func (r *Registry) noteInstrument(name, labels string, inst any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.instruments == nil {
		r.instruments = make(map[instrumentKey]any)
	}
	r.instruments[instrumentKey{name, labels}] = inst
}

func (r *Registry) instrumentAt(name string, idx int) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || idx >= len(f.series) {
		return nil
	}
	return r.instruments[instrumentKey{name, f.series[idx].labels}]
}

func (r *Registry) counterAt(name string, idx int) *Counter {
	if c, ok := r.instrumentAt(name, idx).(*Counter); ok {
		return c
	}
	return &Counter{} // type mismatch: hand back a detached cell
}

func (r *Registry) gaugeAt(name string, idx int) *Gauge {
	if g, ok := r.instrumentAt(name, idx).(*Gauge); ok {
		return g
	}
	return &Gauge{}
}

func (r *Registry) summaryAt(name string, idx int) *AtomicHistogram {
	if h, ok := r.instrumentAt(name, idx).(*AtomicHistogram); ok {
		return h
	}
	return &AtomicHistogram{}
}

func writeSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format. Families appear in sorted name order, series in
// registration order, so output is deterministic and diff-friendly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(names)
	bw := &errWriter{w: w}
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		ss := append([]series(nil), f.series...)
		help, typ := f.help, f.typ
		r.mu.Unlock()
		if help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		for _, s := range ss {
			s.write(bw, name, s.labels)
		}
	}
	return bw.err
}

// errWriter latches the first write error so collectors need no error
// plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
