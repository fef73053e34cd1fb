package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cascade"
	"cascade/internal/metrics"
	"cascade/internal/obs/federate"
	"cascade/internal/store"
)

// hops is the gateway chain length: client → hop0 → hop1 → hop2 → origin.
const hops = 3

// genFloors tracks, per object, the highest generation a completed write
// was acknowledged at. A later read served below it is a coherency
// failure.
type genFloors struct{ gens []atomic.Uint64 }

func (f *genFloors) raise(obj int, gen uint64) {
	for {
		cur := f.gens[obj].Load()
		if gen <= cur || f.gens[obj].CompareAndSwap(cur, gen) {
			return
		}
	}
}

// capturedRequest is one request the origin received during a traced pass,
// kept so the ladder can replay real path frames into Origin.ServeHTTP.
type capturedRequest struct {
	path   string
	header http.Header
}

// chain is one gateway workload's system: origin and three cache nodes on
// loopback listeners, plus the generator's client.
type chain struct {
	w      workload
	exp    *expected
	origin *cascade.HTTPOrigin
	nodes  [hops]*cascade.HTTPCacheNode // index = hop, 0 faces the client

	servers   []*httptest.Server
	nodeURL   [hops]string
	front     string
	urls      []string // per object, at the front
	transport *http.Transport
	client    *http.Client
	floors    *genFloors // nil without writes

	originReqs  atomic.Int64
	originBytes atomic.Int64
	checks

	// Traced passes only.
	rec         *recorder
	upstream    [hops]*tracedTransport
	clientDials atomic.Int64
	capMu       sync.Mutex
	captured    []capturedRequest
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// buildChain assembles the system exactly as cmd/cascadegw and
// cmd/cascadeload deploy it: default upstream client, node-wide lock, eight
// shards, binary framing negotiated on the first exchange. With a recorder
// the same system gets the harness wrappers around every handler and every
// upstream transport, and nothing else changes.
func buildChain(w workload, exp *expected, rec *recorder) *chain {
	c := &chain{w: w, exp: exp, rec: rec}
	clock := cascade.WallClock()
	size := w.objSize
	c.origin = cascade.NewHTTPOrigin(func(cascade.ObjectID) int { return size })
	c.origin.EnableObservability(256, clock)
	c.origin.SegmentThreshold, c.origin.SegmentSize = w.segment, w.segment
	if w.writeRatio > 0 {
		c.origin.Authority = cascade.NewCoherencyAuthority()
		c.floors = &genFloors{gens: make([]atomic.Uint64, w.objects)}
	}
	var originHandler http.Handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/objects/") {
			c.originReqs.Add(1)
			rw = countingWriter{rw, &c.originBytes}
			if rec != nil {
				c.capture(r)
			}
		}
		c.origin.ServeHTTP(rw, r)
	})
	if rec != nil {
		originHandler = rec.wrapHandler(spanOrigin, originHandler)
	}
	c.servers = append(c.servers, httptest.NewServer(originHandler))
	upstream := c.servers[0].URL

	unit := int64(w.objSize)
	if w.segment > 0 {
		unit = w.segment
	}
	dEntries := int(3 * w.nodeBytes / unit)
	for hop := hops - 1; hop >= 0; hop-- {
		n := cascade.NewHTTPCacheNode(cascade.NodeID(hop), upstream, 0.1, w.nodeBytes, dEntries, clock)
		if w.writeRatio > 0 {
			n.EnableCoherency(cascade.CoherencyCAS)
		}
		n.SetShards(8)
		var h http.Handler = n
		if rec != nil {
			c.upstream[hop] = newTracedTransport(rec, spanRoundTrip(hop), http.DefaultTransport)
			n.Client = &http.Client{Transport: c.upstream[hop], Timeout: cascade.DefaultUpstreamTimeout}
			h = rec.wrapHandler(spanHandler(hop), n)
		}
		c.nodes[hop] = n
		srv := httptest.NewServer(h)
		c.servers = append(c.servers, srv)
		c.nodeURL[hop] = srv.URL
		upstream = srv.URL
	}
	c.front = upstream
	c.urls = make([]string, w.objects)
	for i := range c.urls {
		c.urls[i] = c.front + "/objects/" + strconv.Itoa(i)
	}
	// The generator's own transport: exactly `users` connections, kept
	// alive for the whole run.
	c.transport = &http.Transport{
		MaxIdleConns:        users,
		MaxIdleConnsPerHost: users,
		MaxConnsPerHost:     users,
		DisableCompression:  true,
	}
	c.client = &http.Client{Transport: c.transport}
	return c
}

func (c *chain) capture(r *http.Request) {
	c.capMu.Lock()
	if len(c.captured) < 256 {
		c.captured = append(c.captured, capturedRequest{path: r.URL.Path, header: r.Header.Clone()})
	}
	c.capMu.Unlock()
}

func (c *chain) close() {
	c.transport.CloseIdleConnections()
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Close()
	}
}

// gwUser is one closed-loop client: it issues its next operation when the
// previous one has been read to the last byte.
type gwUser struct {
	c       *chain
	ops     []uint32
	buf     []byte
	samples []sample
	traced  bool
	trace   *httptrace.ClientTrace
}

func (c *chain) newUser(ops []uint32, traced bool, capSamples int) *gwUser {
	u := &gwUser{c: c, ops: ops, buf: make([]byte, c.w.objSize+1), traced: traced}
	u.samples = make([]sample, 0, capSamples)
	if traced {
		u.trace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				c.clientDials.Add(1)
			}
		}}
	}
	return u
}

// run issues operations until count of them are done (count > 0) or the
// window has elapsed (count == 0), wrapping around the pre-generated stream
// if the program outruns it. start is the window's opening instant, shared
// by every user.
func (u *gwUser) run(start time.Time, window time.Duration, count int) {
	for i := 0; count == 0 || i < count; i++ {
		op := u.ops[i%len(u.ops)]
		t0 := time.Now()
		if count == 0 && t0.Sub(start) >= window {
			return
		}
		s := sample{ops: 1, from: servedUnknown}
		if op&writeBit != 0 {
			s.write = true
			u.write(int(op&^writeBit), &s, t0, start)
		} else {
			u.read(int(op), i, &s, t0, start)
		}
		u.samples = append(u.samples, s)
	}
}

// read fetches one object and checks the response. The latency clock stops
// when the body has been read; the checks run after it.
func (u *gwUser) read(obj, seq int, s *sample, t0, start time.Time) {
	c := u.c
	c.attempted.Add(1)
	req, err := http.NewRequest(http.MethodGet, c.urls[obj], nil)
	if err != nil {
		c.noteFailure("GET %d: %v", obj, err)
		return
	}
	var floor uint64
	if c.floors != nil {
		if floor = c.floors.gens[obj].Load(); floor > 0 {
			req.Header.Set(cascade.HTTPHeaderGen, strconv.FormatUint(floor, 10))
		}
	}
	var sp span
	if u.traced {
		sp = span{ID: c.rec.newID(), Name: spanClient}
		req.Header.Set(spanHeader, strconv.FormatUint(uint64(sp.ID), 10))
		req = req.WithContext(httptrace.WithClientTrace(context.Background(), u.trace))
		sp.Start = c.rec.now()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.noteFailure("GET %d: %v", obj, err)
		return
	}
	n, rerr := readInto(resp.Body, u.buf)
	resp.Body.Close()
	t1 := time.Now()
	hit := resp.Header.Get(cascade.HTTPHeaderHit)
	if u.traced {
		sp.End = c.rec.now()
		sp.Note = hit
		c.rec.add(sp)
	}
	s.end, s.lat = int64(t1.Sub(start)), int64(t1.Sub(t0))
	s.bytes = int64(n)
	switch hit {
	case "origin":
		s.from = servedOrigin
	case "0", "1", "2":
		s.from = int8(hit[0] - '0')
	}

	switch {
	case rerr != nil:
		c.noteFailure("GET %d: reading body: %v", obj, rerr)
	case resp.StatusCode != http.StatusOK:
		c.noteFailure("GET %d: status %d", obj, resp.StatusCode)
	case n != c.exp.size:
		c.noteFailure("GET %d: %d body bytes, want %d", obj, n, c.exp.size)
	case c.w.segment == 0 && resp.Header.Get("ETag") != c.exp.etag[obj]:
		c.noteFailure("GET %d: ETag %s, want %s", obj, resp.Header.Get("ETag"), c.exp.etag[obj])
	case c.w.segment > 0 && !u.windowMatches(obj, seq):
		c.noteFailure("GET %d: reassembled body differs from SyntheticRange", obj)
	case seq%64 == 0 && sha256.Sum256(u.buf[:n]) != c.exp.sha[obj]:
		c.noteFailure("GET %d: body SHA-256 mismatch", obj)
	}
	if c.floors != nil {
		gen, perr := strconv.ParseUint(resp.Header.Get(cascade.HTTPHeaderGen), 10, 64)
		if h := resp.Header.Get(cascade.HTTPHeaderGen); h != "" && perr != nil {
			c.noteFailure("GET %d: bad %s %q", obj, cascade.HTTPHeaderGen, h)
		} else if gen < floor {
			c.noteFailure("GET %d: served generation %d below completed write %d", obj, gen, floor)
		}
	}
}

// windowMatches compares a 4 KiB window of a segmented response — which
// carries no ETag — against the generator, at an offset that moves with
// the request sequence so successive reads cover the whole object.
func (u *gwUser) windowMatches(obj, seq int) bool {
	const win = 4 << 10
	size := u.c.exp.size
	lo := (seq * 2654435761) % (size - win + 1)
	if lo < 0 {
		lo = -lo
	}
	return bytes.Equal(u.buf[lo:lo+win], store.SyntheticRange(cascade.ObjectID(obj), size, lo, lo+win))
}

// readInto reads a body to EOF into buf and returns its length. A body
// longer than buf is reported by a length equal to len(buf) — one more
// than any correct body, so the length check fails.
func readInto(r io.Reader, buf []byte) (int, error) {
	n := 0
	for {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if n == len(buf) {
			_, err := io.Copy(io.Discard, r)
			return n, err
		}
	}
}

// write invalidates one object through the front node and raises the
// generator's floor to the acknowledged generation.
func (u *gwUser) write(obj int, s *sample, t0, start time.Time) {
	c := u.c
	c.attempted.Add(1)
	resp, err := c.client.Post(c.front+"/cascade/admin/invalidate?obj="+strconv.Itoa(obj), "application/json", nil)
	if err != nil {
		c.noteFailure("invalidate %d: %v", obj, err)
		return
	}
	var rep struct {
		Obj int64  `json:"obj"`
		Gen uint64 `json:"gen"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&rep)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive; the decode result is what counts
	resp.Body.Close()
	t1 := time.Now()
	s.end, s.lat = int64(t1.Sub(start)), int64(t1.Sub(t0))
	switch {
	case resp.StatusCode != http.StatusOK:
		c.noteFailure("invalidate %d: status %d", obj, resp.StatusCode)
	case derr != nil:
		c.noteFailure("invalidate %d: bad reply: %v", obj, derr)
	case rep.Obj != int64(obj) || rep.Gen == 0:
		c.noteFailure("invalidate %d: acknowledged obj %d gen %d", obj, rep.Obj, rep.Gen)
	default:
		c.floors.raise(obj, rep.Gen)
	}
}

// drive runs one pass with every user in parallel and returns their
// samples and the pass's wall time.
func (c *chain) drive(streams [][]uint32, traced bool, window time.Duration, perUserCount int) ([][]sample, time.Duration) {
	capSamples := perUserCount
	if capSamples == 0 {
		capSamples = int(2 * c.w.rate * window.Seconds() / users)
	}
	us := make([]*gwUser, len(streams))
	for i, ops := range streams {
		us[i] = c.newUser(ops, traced, capSamples)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, u := range us {
		wg.Add(1)
		go func(u *gwUser) {
			defer wg.Done()
			u.run(start, window, perUserCount)
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := make([][]sample, len(us))
	for i, u := range us {
		out[i] = u.samples
	}
	return out, elapsed
}

// warmUp replays the warm-up stream, split across the users.
func (c *chain) warmUp(ops []uint32) {
	per := len(ops) / users
	streams := make([][]uint32, users)
	for u := range streams {
		streams[u] = ops[u*per : (u+1)*per]
	}
	c.drive(streams, false, 0, per)
}

// counters reads every program-side counter the benchmark reports, from
// the public surfaces only: /cascade/stats over the harness's own
// connection, each node's metrics registry, BodyStats and the auditors.
func (c *chain) counters() (map[string]float64, error) {
	out := map[string]float64{
		"httpgw.origin.requests": float64(c.originReqs.Load()),
		"origin.bytes":           float64(c.originBytes.Load()),
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	for hop, n := range c.nodes {
		resp, err := cl.Get(c.nodeURL[hop] + "/cascade/stats")
		if err != nil {
			return nil, err
		}
		var st struct {
			Hits       int64 `json:"hits"`
			Misses     int64 `json:"misses"`
			Inserts    int64 `json:"inserts"`
			BadHeaders int64 `json:"bad_headers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("hop %d stats: %w", hop, err)
		}
		p := "httpgw.hop" + strconv.Itoa(hop)
		out[p+".requests"] = float64(st.Hits + st.Misses)
		out[p+".hits"] = float64(st.Hits)
		out[p+".inserts"] = float64(st.Inserts)
		out["httpgw.bad_headers"] += float64(st.BadHeaders)

		series, err := scrape(n.MetricsRegistry())
		if err != nil {
			return nil, err
		}
		out["engine.lock_waits"] += series["cascade_node_shard_lock_waits_total"]
		out["engine.evictions"] += series["cascade_node_shard_evictions_total"]
		out["coherency.stale_hits"] += series["cascade_coherency_stale_hits_total"]
		out["coherency.invalidations"] += series["cascade_coherency_invalidations_total"]
		out["coherency.cas_conflicts"] += series["cascade_coherency_cas_conflicts_total"]
		out["audit.violations"] += series["cascade_audit_violations_total"]
		out["store.mem_bytes"] += float64(n.BodyStats().MemBytes)
	}
	out["audit.violations"] += float64(c.origin.Auditor().TotalViolations())
	return out, nil
}

// scrape renders a registry in the Prometheus text format — its only read
// surface — and sums every series by metric name across labels.
func scrape(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	samples, err := federate.ParsePrometheus(&buf)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out, nil
}
