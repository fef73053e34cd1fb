package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cascade"
)

// setupRepeats is how many times a run builds and warms its system. The
// reported setup_s is the median; the last build is the one measured.
const setupRepeats = 3

// runConfig is one run's inputs.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64 // measured window at scale 1
	scale   float64 // shrinks windows and counts alike (tests)
	outDir  string
}

func (rc runConfig) window() time.Duration {
	return time.Duration(rc.seconds * rc.scale * float64(time.Second))
}

// count scales an operation count, keeping it a positive multiple of the
// user count.
func (rc runConfig) count(n float64) int {
	c := int(n*rc.scale) / users * users
	if c < users {
		c = users
	}
	return c
}

// streamLen sizes a user's pre-generated stream: twice what the reference
// sandbox gets through in the window.
func (rc runConfig) streamLen() int {
	return rc.count(2*rc.w.rate*rc.seconds) / users
}

// tracedCount is the length of the count-based passes of a traced run: a
// quarter of the window's nominal work, the same operations for the
// untraced reference pass and the traced pass so their hit ratios compare.
func (rc runConfig) tracedCount() int {
	return rc.count(rc.w.rate*rc.seconds/4) / users
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metric)}
}

// liveHeapMB drops nothing itself: callers nil out the harness's buffers
// first so the number is the system's.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEnd fills the end-to-end metrics every workload reports.
func (r *result) endToEnd(setups []float64, ws windowStats, byteHit, heapMB float64) {
	r.set(endToEndUnits, "setup_s", median(setups))
	r.set(endToEndUnits, "throughput_rps", ws.throughput)
	r.set(endToEndUnits, "req_p50_us", ws.readP50us)
	r.set(endToEndUnits, "req_p95_us", ws.readP95us)
	r.set(endToEndUnits, "payload_mb_per_s", ws.payloadMBs)
	r.set(endToEndUnits, "byte_hit_ratio", byteHit)
	r.set(endToEndUnits, "live_heap_mb", heapMB)
}

// perLayer fills every declared per-layer metric, 0 where the workload
// never crosses the layer.
func (r *result) perLayer(values map[string]float64) {
	for name := range perLayerUnits {
		r.set(perLayerUnits, name, values[name])
	}
	for name := range values {
		if _, ok := perLayerUnits[name]; !ok {
			panic("bench: per-layer value " + name + " is not declared")
		}
	}
}

func runOnce(rc runConfig, traced bool) (*result, error) {
	switch rc.w.kind {
	case kindGateway:
		if traced {
			return gatewayTraced(rc)
		}
		return gatewayEndToEnd(rc)
	case kindCluster:
		if traced {
			return clusterTraced(rc)
		}
		return clusterEndToEnd(rc)
	default:
		if traced {
			return simTraced(rc)
		}
		return simEndToEnd(rc)
	}
}

// ---- gateway workloads ----

type gwInputs struct {
	exp     *expected
	warm    []uint32
	streams [][]uint32
}

func gatewayInputs(rc runConfig, perUser int) gwInputs {
	w := rc.w
	perm := catalogPerm(rc.seed, w.objects)
	in := gwInputs{
		exp:  buildExpected(w.objects, w.objSize),
		warm: gwOps(rc.seed, streamWarm, perm, rc.count(float64(w.warm)), w.writeRatio),
	}
	for u := 0; u < users; u++ {
		in.streams = append(in.streams, gwOps(rc.seed, streamUser0+uint64(u), perm, perUser, w.writeRatio))
	}
	return in
}

func payload(samples [][]sample) (bytes int64, ops int64) {
	for _, us := range samples {
		for _, s := range us {
			bytes += s.bytes
			ops += int64(s.ops)
		}
	}
	return
}

func byteHitRatio(clientBytes, originBytes int64) float64 {
	if clientBytes == 0 {
		return 0
	}
	return 1 - float64(originBytes)/float64(clientBytes)
}

func gatewayEndToEnd(rc runConfig) (*result, error) {
	res := newResult()
	in := gatewayInputs(rc, rc.streamLen())
	var setups []float64
	var c *chain
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			res.absorb(&c.checks)
			c.close()
		}
		t0 := time.Now()
		c = buildChain(rc.w, in.exp, nil)
		c.warmUp(in.warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	originBefore := c.originBytes.Load()
	samples, _ := c.drive(in.streams, false, rc.window(), 0)
	clientBytes, _ := payload(samples)
	byteHit := byteHitRatio(clientBytes, c.originBytes.Load()-originBefore)
	ws := summarize(samples, int64(rc.window()))

	ctr, err := c.counters()
	if err != nil {
		return nil, err
	}
	if v := ctr["audit.violations"]; v != 0 {
		res.fail("%v auditor violations across the chain", v)
	}
	res.absorb(&c.checks)
	samples, in.streams, in.warm = nil, nil, nil
	res.endToEnd(setups, ws, byteHit, liveHeapMB())
	return res, nil
}

// memDelta is what the Go runtime did during a pass.
type memDelta struct {
	allocBytes uint64
	pauseNs    uint64
}

func memSnapshot() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.PauseTotalNs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.allocBytes - b.allocBytes, a.pauseNs - b.pauseNs}
}

// gwPass is one count-based pass over a freshly built and warmed chain.
type gwPass struct {
	c        *chain
	samples  [][]sample
	elapsed  time.Duration
	delta    map[string]float64 // counter movement during the pass
	after    map[string]float64
	mem      memDelta
	ops      int64
	byteHit  float64
	perReq   map[string]float64 // per-hop hits and inserts per request
	throughp float64
}

func gatewayPass(rc runConfig, in gwInputs, rec *recorder) (*gwPass, error) {
	c := buildChain(rc.w, in.exp, rec)
	c.warmUp(in.warm)
	before, err := c.counters()
	if err != nil {
		c.close()
		return nil, err
	}
	m0 := memSnapshot()
	p := &gwPass{c: c}
	p.samples, p.elapsed = c.drive(in.streams, rec != nil, 0, rc.tracedCount())
	p.mem = memSnapshot().since(m0)
	if p.after, err = c.counters(); err != nil {
		c.close()
		return nil, err
	}
	p.delta = make(map[string]float64, len(p.after))
	for k, v := range p.after {
		p.delta[k] = v - before[k]
	}
	var clientBytes int64
	clientBytes, p.ops = payload(p.samples)
	p.byteHit = byteHitRatio(clientBytes, int64(p.delta["origin.bytes"]))
	p.throughp = float64(p.ops) / p.elapsed.Seconds()
	p.perReq = make(map[string]float64)
	for hop := 0; hop < hops; hop++ {
		for _, k := range []string{".hits", ".inserts"} {
			name := "httpgw.hop" + strconv.Itoa(hop) + k
			p.perReq[name] = p.delta[name] / float64(p.ops)
		}
	}
	return p, nil
}

// p50Served is the median latency (µs) of the reads one hop served.
func p50Served(samples [][]sample, from int8) float64 {
	var v []float64
	for _, us := range samples {
		for _, s := range us {
			if !s.write && s.from == from {
				v = append(v, float64(s.lat)/1e3)
			}
		}
	}
	return median(v)
}

func gatewayTraced(rc runConfig) (*result, error) {
	res := newResult()
	in := gatewayInputs(rc, rc.tracedCount())

	// Reference pass: the system as shipped, same operations.
	ref, err := gatewayPass(rc, in, nil)
	if err != nil {
		return nil, err
	}
	res.absorb(&ref.c.checks)
	ref.c.close()
	refStats := summarize(ref.samples, int64(ref.elapsed))

	rec := newRecorder()
	tr, err := gatewayPass(rc, in, rec)
	if err != nil {
		return nil, err
	}
	res.absorb(&tr.c.checks)
	tr.c.close()

	// The measured clock has stopped; only now are spans touched.
	spans := rec.spans
	extended := coverChildren(spans)
	if err := checkSpans(spans); err != nil {
		res.fail("span tree: %v", err)
	}
	self := selfTimes(spans)

	v := make(map[string]float64)
	for hop := 0; hop < hops; hop++ {
		h := strconv.Itoa(hop)
		v["httpgw.hop"+h+".self_us"] = median(self[spanHandler(hop)])
		v["loopback.hop"+h+".self_us"] = median(self[spanRoundTrip(hop)])
		v["loopback.hop"+h+".dials"] = float64(tr.c.upstream[hop].dials.Load())
	}
	v["httpgw.origin.self_us"] = median(self[spanOrigin])
	v["loopback.client.self_us"] = median(self[spanClient])
	v["client.dials"] = float64(tr.c.clientDials.Load())
	for _, k := range []string{"httpgw.origin.requests", "httpgw.bad_headers", "engine.lock_waits", "engine.evictions",
		"coherency.stale_hits", "coherency.invalidations", "coherency.cas_conflicts"} {
		v[k] = tr.delta[k]
	}
	for hop := 0; hop < hops; hop++ {
		for _, k := range []string{".requests", ".hits", ".inserts"} {
			name := "httpgw.hop" + strconv.Itoa(hop) + k
			v[name] = tr.delta[name]
		}
	}
	v["store.mem_bytes"] = tr.after["store.mem_bytes"]
	if n := tr.after["audit.violations"] + ref.after["audit.violations"]; n != 0 {
		res.fail("%v auditor violations across the chain", n)
	}

	v["client.p99_us"] = refStats.readP99us
	v["client.p999_us"] = refStats.readP999us
	v["client.write_p50_us"] = refStats.writeP50us
	v["client.write_p95_us"] = refStats.writeP95us
	v["client.alloc_bytes_per_req"] = float64(ref.mem.allocBytes) / float64(ref.ops)
	v["client.gc_pause_ms"] = float64(ref.mem.pauseNs) / 1e6
	v["trace.overhead_ratio"] = tr.throughp / ref.throughp

	// Did tracing change what the program did? Report the drift rather
	// than fail on it: a traced pass runs slower against a wall clock the
	// frequency estimators read, and two users interleave differently on
	// every run, so placements never repeat exactly.
	v["trace.byte_hit_drift"] = relDiff(tr.byteHit, ref.byteHit)
	for k, a := range ref.perReq {
		if d := math.Abs(tr.perReq[k] - a); d > v["trace.per_hop_drift"] {
			v["trace.per_hop_drift"] = d
		}
	}

	ladderOut, err := runLadder(rc.w, rc.scale, 0, tr.c.captured, rc.outDir)
	if err != nil {
		return nil, err
	}
	for k, x := range ladderOut {
		v[k] = x
	}
	if p50 := p50Served(ref.samples, 0); p50 > 0 {
		v["ladder.hit_coverage"] = (v["loopback.rtt_ns"] + v["httpgw.handler_hit_ns"]) / (p50 * 1e3)
	}
	if p50 := p50Served(ref.samples, servedOrigin); p50 > 0 {
		v["ladder.miss_coverage"] = ((hops+1)*v["loopback.rtt_ns"] + v["httpgw.chain_miss_ns"]) / (p50 * 1e3)
	}
	res.perLayer(v)

	fmt.Fprintf(os.Stderr, "bench: %s traced: %d spans (%d parents extended to cover a child), byte_hit ref %.4f traced %.4f\n",
		rc.w.name, len(spans), extended, ref.byteHit, tr.byteHit)
	if err := writeSpans(filepath.Join(rc.outDir, rc.w.name+".trace.jsonl"), spans); err != nil {
		return nil, err
	}
	return res, nil
}

// relDiff is |a−b| as a share of b; two equal values do not differ.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if b == 0 {
		return 1
	}
	return math.Abs((a - b) / b)
}

// ---- cluster_get ----

func (r *result) absorbCluster(s *clusterSystem) {
	r.absorb(&s.checks)
	if n := s.cl.Auditor().TotalViolations(); n != 0 {
		r.fail("%d cluster auditor violations", n)
	}
}

func clusterEndToEnd(rc runConfig) (*result, error) {
	res := newResult()
	cat, warm, streams := clusterInputs(rc.seed, rc.count(float64(rc.w.warm)), rc.streamLen())
	var setups []float64
	var s *clusterSystem
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			res.absorbCluster(s)
			s.cl.Close()
		}
		t0 := time.Now()
		var err error
		if s, err = buildCluster(cat, 0); err != nil {
			return nil, err
		}
		s.warmUp(warm)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.cl.Close()
	samples, tot := s.drive(streams, rc.window(), 0, nil)
	ws := summarize(samples, int64(rc.window()))
	res.absorbCluster(s)
	samples, streams, warm = nil, nil, nil
	res.endToEnd(setups, ws, float64(tot.hitBytes)/float64(tot.bytes), liveHeapMB())
	return res, nil
}

func clusterTraced(rc runConfig) (*result, error) {
	res := newResult()
	n := rc.tracedCount()
	cat, warm, streams := clusterInputs(rc.seed, rc.count(float64(rc.w.warm)), n)
	rec := newRecorder()

	// pass builds, warms and drives one cluster; spanSample > 0 turns on
	// the program's own tail-sampled span rings, rec the harness's 1-in-64
	// per-operation timing.
	pass := func(spanSample float64, rec *recorder) (passTotals, cascade.ClusterStats, memDelta, error) {
		s, err := buildCluster(cat, spanSample)
		if err != nil {
			return passTotals{}, cascade.ClusterStats{}, memDelta{}, err
		}
		defer s.cl.Close()
		s.warmUp(warm)
		before, m0 := s.cl.Stats(), memSnapshot()
		_, tot := s.drive(streams, 0, n, rec)
		mem := memSnapshot().since(m0)
		after := s.cl.Stats()
		res.absorbCluster(s)
		return tot, cascade.ClusterStats{
			Requests:  after.Requests - before.Requests,
			CacheHits: after.CacheHits - before.CacheHits,
			Messages:  after.Messages - before.Messages,
		}, mem, nil
	}
	plain, st, mem, err := pass(0, nil)
	if err != nil {
		return nil, err
	}
	sampled, _, _, err := pass(0.01, nil)
	if err != nil {
		return nil, err
	}
	timed, _, _, err := pass(0, rec)
	if err != nil {
		return nil, err
	}
	if err := checkSpans(rec.spans); err != nil {
		res.fail("span tree: %v", err)
	}

	v, err := runLadder(rc.w, rc.scale, int(cat.AvgSize()), nil, rc.outDir)
	if err != nil {
		return nil, err
	}
	v["runtime.get_ns"] = median(timed.sampledNs)
	v["runtime.msgs_per_req"] = float64(st.Messages) / float64(st.Requests)
	v["runtime.hit_ratio"] = float64(st.CacheHits) / float64(st.Requests)
	v["runtime.alloc_bytes_per_req"] = float64(mem.allocBytes) / float64(plain.ops)
	v["span.sampled_overhead_ratio"] = (float64(sampled.ops) / sampled.elapsed.Seconds()) / (float64(plain.ops) / plain.elapsed.Seconds())
	res.perLayer(v)
	return res, writeSpans(filepath.Join(rc.outDir, rc.w.name+".trace.jsonl"), rec.spans)
}

// ---- sim_replay ----

func (r *result) absorbSim(t passTotals) {
	r.Attempted += t.ops
	if t.bad > 0 {
		r.Failed += t.bad - 1 // fail counts the last one
		r.fail("%d simulator samples disagree with their requests", t.bad)
	}
}

// The simulator has no bytes to verify, so its output check is determinism:
// the same inputs must give a bit-identical Summary. The three set-up
// replays of the warm-up provide that check for free.
func simEndToEnd(rc runConfig) (*result, error) {
	res := newResult()
	warm := rc.count(float64(rc.w.warm))
	cat, ops := simInputs(rc.seed, warm+users*rc.streamLen())
	var setups []float64
	var s *simSystem
	var first cascade.Summary
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if s, err = buildSim(cat); err != nil {
			return nil, err
		}
		_, tot, sum := s.replay(ops[:warm], 0, warm, nil)
		setups = append(setups, time.Since(t0).Seconds())
		res.absorbSim(tot)
		if i == 0 {
			first = sum
		} else if sum != first {
			res.fail("warm-up replay %d gave a different Summary than replay 0: %+v vs %+v", i, sum, first)
		}
	}
	samples, tot, sum := s.replay(ops[warm:], rc.window(), 0, nil)
	res.absorbSim(tot)
	if sum.DegradedRatio != 0 {
		res.fail("simulator served %.4f of requests degraded", sum.DegradedRatio)
	}
	ws := summarize([][]sample{samples}, int64(rc.window()))
	samples, ops = nil, nil
	res.endToEnd(setups, ws, sum.ByteHitRatio, liveHeapMB())
	runtime.KeepAlive(s) // the simulator is the heap being measured
	return res, nil
}

func simTraced(rc runConfig) (*result, error) {
	res := newResult()
	warm := rc.count(float64(rc.w.warm))
	n := users * rc.tracedCount()
	cat, ops := simInputs(rc.seed, warm+n)
	rec := newRecorder()

	pass := func(rec *recorder) (passTotals, cascade.Summary, memDelta, error) {
		s, err := buildSim(cat)
		if err != nil {
			return passTotals{}, cascade.Summary{}, memDelta{}, err
		}
		s.replay(ops[:warm], 0, warm, nil)
		m0 := memSnapshot()
		_, tot, sum := s.replay(ops[warm:], 0, n, rec)
		res.absorbSim(tot)
		return tot, sum, memSnapshot().since(m0), nil
	}
	plain, sum, mem, err := pass(nil)
	if err != nil {
		return nil, err
	}
	_, sum2, _, err := pass(rec)
	if err != nil {
		return nil, err
	}
	if sum != sum2 {
		res.fail("two replays of seed %d gave different Summaries: %+v vs %+v", rc.seed, sum, sum2)
	}
	if err := checkSpans(rec.spans); err != nil {
		res.fail("span tree: %v", err)
	}
	v, err := runLadder(rc.w, rc.scale, int(cat.AvgSize()), nil, rc.outDir)
	if err != nil {
		return nil, err
	}
	v["sim.process_ns"] = float64(plain.elapsed) / float64(plain.ops)
	v["sim.alloc_bytes_per_req"] = float64(mem.allocBytes) / float64(plain.ops)
	v["sim.mean_hops"] = sum.AvgHops
	v["sim.model_latency_s"] = sum.AvgLatency
	res.perLayer(v)
	return res, writeSpans(filepath.Join(rc.outDir, rc.w.name+".trace.jsonl"), rec.spans)
}
