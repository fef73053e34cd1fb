package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cascade"
	"cascade/internal/cache"
	"cascade/internal/coherency"
	"cascade/internal/engine"
	"cascade/internal/model"
	"cascade/internal/store"
)

// The ladder times each layer's public calls in isolation, shaped like the
// workload: its object size, its chain length, its coherency mode. Every
// rung is the median of five batches, in nanoseconds per call.

const ladderBatches = 5

// timeBatches runs fn(n) five times and returns the median time per call.
func timeBatches(n int, fn func(n int)) float64 {
	if n < 1 {
		n = 1
	}
	per := make([]float64, ladderBatches)
	for b := range per {
		t0 := time.Now()
		fn(n)
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// ladder holds one workload's rung parameters.
type ladder struct {
	w       workload
	scale   float64
	objSize int   // bytes the body-handling rungs move per call
	unit    int64 // bytes of one protocol object (a segment for gw_large)
	pathLen int   // candidates per placement decision
	tmp     string
	out     map[string]float64
}

// calls scales a rung's per-batch call count: by -scale, and down for
// body-bound rungs as objects grow past 64 KiB so a 1 MiB workload's ladder
// takes as long as a 4 KiB one's.
func (l *ladder) calls(perBatch int, bodyBound bool) int {
	n := float64(perBatch) * l.scale
	if bodyBound && l.objSize > 64<<10 {
		n /= float64(l.objSize) / (64 << 10)
	}
	if n < 2 {
		return 2
	}
	return int(n)
}

func runLadder(w workload, scale float64, avgSize int, captured []capturedRequest, tmp string) (map[string]float64, error) {
	l := &ladder{w: w, scale: scale, objSize: w.objSize, unit: int64(w.objSize), pathLen: hops, tmp: tmp, out: make(map[string]float64)}
	if w.kind != kindGateway {
		// In-process workloads: catalog-average objects, the tree's depth.
		l.objSize, l.unit, l.pathLen = avgSize, int64(avgSize), 4
	}
	if w.segment > 0 {
		l.unit = w.segment
	}
	l.core()
	l.cacheStore()
	l.engine()
	if w.kind != kindGateway {
		return l.out, nil
	}
	if err := l.bodyStore(); err != nil {
		return nil, err
	}
	if w.writeRatio > 0 {
		l.coherency()
	}
	if err := l.gateway(captured); err != nil {
		return nil, err
	}
	return l.out, nil
}

// core: the placement DP on a path as long as the workload's.
func (l *ladder) core() {
	path := make([]cascade.PathNode, l.pathLen)
	for i := range path {
		path[i] = cascade.PathNode{Freq: float64(l.pathLen-i) * 2, MissPenalty: float64(i+1) * 0.1, CostLoss: 0.05 * float64(i+1)}
	}
	var sink cascade.Placement
	l.out["core.optimize_ns"] = timeBatches(l.calls(20000, false), func(n int) {
		for i := 0; i < n; i++ {
			path[0].Freq += 1e-9 // defeat memoisation of an identical input
			sink = cascade.OptimizePlacement(path)
		}
	})
	_ = sink
}

// capObjects is how many protocol objects one node's cache holds.
func (l *ladder) capObjects() int {
	nodeBytes := l.w.nodeBytes
	if nodeBytes == 0 {
		nodeBytes = 64 * l.unit
	}
	n := int(nodeBytes / l.unit)
	if n < 8 {
		n = 8
	}
	return n
}

// cacheStore: one insertion into a full cost-aware store, evicting its NCL
// victim.
func (l *ladder) cacheStore() {
	capObjs := l.capObjects()
	st := cache.NewCostAware(int64(capObjs) * l.unit)
	now, next := 0.0, 0
	insert := func() {
		d := cache.NewDescriptor(model.ObjectID(next), l.unit)
		d.Window.Record(now)
		d.SetMissPenalty(0.1 + float64(next%7)*0.05)
		st.Insert(d, now)
		next++
		now += 1e-3
	}
	for i := 0; i < capObjs; i++ {
		insert()
	}
	l.out["cache.insert_evict_ns"] = timeBatches(l.calls(10000, false), func(n int) {
		for i := 0; i < n; i++ {
			insert()
		}
	})
}

// engine: the per-node protocol steps on the sharded state the gateway and
// the cluster both drive. Each round walks fresh objects through the miss
// cycle — response passes by (descriptor created), request misses again
// (candidate with eviction cost loss), response places (NCL eviction) —
// then looks the placed copies up.
func (l *ladder) engine() {
	capObjs := l.capObjects()
	var view *coherency.NodeView
	if l.w.writeRatio > 0 {
		view = coherency.NewNodeView(coherency.ModeCAS, 0)
	}
	st := engine.NewSharded(engine.ShardedConfig{
		Shards: 8, CacheBytes: int64(capObjs) * l.unit, DCacheEntries: 3 * capObjs, Coherency: view,
	})
	per := capObjs / 2
	if per > 256 {
		per = 256
	}
	rounds := l.calls(10000, false) / per
	if rounds < 1 {
		rounds = 1
	}
	now, next := 0.0, 0
	tick := func() float64 { now += 1e-4; return now }
	var evicted []model.ObjectID
	var pass, upmiss, place, lookup [ladderBatches]time.Duration
	for b := 0; b < ladderBatches; b++ {
		for r := 0; r < rounds; r++ {
			base := next
			next += per
			t0 := time.Now()
			for i := 0; i < per; i++ {
				st.DownStep(model.ObjectID(base+i), l.unit, false, 0.3, 0, -1, tick(), evicted[:0])
			}
			t1 := time.Now()
			for i := 0; i < per; i++ {
				st.UpMiss(model.ObjectID(base+i), 0, -1, 0.1, tick())
			}
			t2 := time.Now()
			for i := 0; i < per; i++ {
				_, evicted = st.DownStep(model.ObjectID(base+i), l.unit, true, 0.3, 0, -1, tick(), evicted[:0])
			}
			t3 := time.Now()
			for i := 0; i < per; i++ {
				st.Lookup(model.ObjectID(base+i), tick())
			}
			t4 := time.Now()
			pass[b] += t1.Sub(t0)
			upmiss[b] += t2.Sub(t1)
			place[b] += t3.Sub(t2)
			lookup[b] += t4.Sub(t3)
		}
	}
	perCall := func(d [ladderBatches]time.Duration) float64 {
		v := make([]float64, len(d))
		for i := range d {
			v[i] = float64(d[i]) / float64(rounds*per)
		}
		return median(v)
	}
	l.out["engine.downstep_pass_ns"] = perCall(pass)
	l.out["engine.upmiss_ns"] = perCall(upmiss)
	l.out["engine.downstep_place_ns"] = perCall(place)
	l.out["engine.lookup_ns"] = perCall(lookup)

	cands := make([]cascade.EngineCandidate, l.pathLen)
	for i := range cands {
		cands[i] = cascade.EngineCandidate{Hop: i, Node: cascade.NodeID(i), Tag: cascade.EngineTagCandidate,
			Freq: float64(l.pathLen-i) * 2, CostLoss: 0.05 * float64(i+1), Link: 0.1}
	}
	at := cascade.EngineServePoint{Hop: l.pathLen, Node: cascade.NoNode}
	var sink []int
	l.out["engine.decide_ns"] = timeBatches(l.calls(20000, false), func(n int) {
		for i := 0; i < n; i++ {
			sink = cascade.DecidePlacement(cands, cascade.EngineDecideOptions{}, at)
		}
	})
	_ = sink
}

// bodyStore: the data plane's tiers. The disk tier lives in a scratch
// directory on whatever the sandbox mounts there; its numbers are page-cache
// numbers, not device numbers.
func (l *ladder) bodyStore() error {
	dir := filepath.Join(l.tmp, "ladder-spill")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t, err := store.NewTiered(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	const ring = 256 // distinct resident IDs, so the map stays the size a node's is
	body := store.SyntheticBody(1, int(l.unit))
	meta := store.Meta{ETag: `"0"`, Fetched: 1}
	next := 0
	l.out["store.put_ns"] = timeBatches(l.calls(20000, false), func(n int) {
		for i := 0; i < n; i++ {
			t.Put(model.ObjectID(next%ring), body, meta)
			next++
		}
	})
	var got []byte
	l.out["store.get_ns"] = timeBatches(l.calls(20000, false), func(n int) {
		for i := 0; i < n; i++ {
			got, _, _ = t.Get(model.ObjectID(next % ring))
			next++
		}
	})
	if len(got) != len(body) {
		return fmt.Errorf("ladder: store.Get returned %d bytes, want %d", len(got), len(body))
	}
	// Spill writes, fsyncs and renames one file per call.
	nSpill := l.calls(40, true)
	var spill, diskGet [ladderBatches]float64
	for b := 0; b < ladderBatches; b++ {
		base := model.ObjectID(1000 + b*nSpill)
		for i := 0; i < nSpill; i++ {
			t.Put(base+model.ObjectID(i), body, meta)
		}
		t0 := time.Now()
		for i := 0; i < nSpill; i++ {
			if !t.Spill(base + model.ObjectID(i)) {
				return fmt.Errorf("ladder: spill of object %d failed", base+model.ObjectID(i))
			}
		}
		t1 := time.Now()
		for i := 0; i < nSpill; i++ {
			if _, _, src := t.Get(base + model.ObjectID(i)); src != store.SrcDisk {
				return fmt.Errorf("ladder: object %d not served from disk", base+model.ObjectID(i))
			}
		}
		t2 := time.Now()
		spill[b] = float64(t1.Sub(t0)) / float64(nSpill)
		diskGet[b] = float64(t2.Sub(t1)) / float64(nSpill)
	}
	l.out["store.spill_ns"] = median(spill[:])
	l.out["store.disk_get_ns"] = median(diskGet[:])
	return nil
}

// coherency: the floor check every CAS read pays, and one invalidation
// applied through the engine.
func (l *ladder) coherency() {
	view := coherency.NewNodeView(coherency.ModeCAS, 0)
	capObjs := l.capObjects()
	st := engine.NewSharded(engine.ShardedConfig{Shards: 8, CacheBytes: int64(capObjs) * l.unit, DCacheEntries: 3 * capObjs, Coherency: view})
	for i := 0; i < l.w.objects; i++ {
		view.Raise(model.ObjectID(i), 1)
	}
	var sink uint64
	next := 0
	l.out["coherency.floor_ns"] = timeBatches(l.calls(20000, false), func(n int) {
		for i := 0; i < n; i++ {
			sink += view.Floor(model.ObjectID(next % l.w.objects))
			next++
		}
	})
	_ = sink
	seq := uint64(0)
	l.out["coherency.apply_ns"] = timeBatches(l.calls(20000, false), func(n int) {
		for i := 0; i < n; i++ {
			seq++
			inv := [1]coherency.Invalidation{{Seq: seq, Obj: model.ObjectID(seq % uint64(l.w.objects)), Gen: seq + 1}}
			st.ApplyInvalidations(inv[:], 0, float64(seq)*1e-4)
		}
	})
}

// memTransport joins gateway hops without sockets: the upstream handler
// runs on the caller's goroutine and its recorded response comes back as
// the exchange's result.
type memTransport struct{ next http.Handler }

func (t memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.next.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// memChain builds origin and n nodes joined by memTransports and returns
// the front node.
func (l *ladder) memChain(n int, textOnly bool) (*cascade.HTTPCacheNode, *cascade.HTTPOrigin) {
	clock := cascade.WallClock()
	size := l.w.objSize
	origin := cascade.NewHTTPOrigin(func(cascade.ObjectID) int { return size })
	origin.SegmentThreshold, origin.SegmentSize = l.w.segment, l.w.segment
	origin.DisableBinaryFraming = textOnly
	if l.w.writeRatio > 0 {
		origin.Authority = cascade.NewCoherencyAuthority()
	}
	var next http.Handler = origin
	var front *cascade.HTTPCacheNode
	for hop := n - 1; hop >= 0; hop-- {
		node := cascade.NewHTTPCacheNode(cascade.NodeID(hop), "http://hop"+strconv.Itoa(hop+1), 0.1, l.w.nodeBytes, 3*l.capObjects(), clock)
		if l.w.writeRatio > 0 {
			node.EnableCoherency(cascade.CoherencyCAS)
		}
		node.SetShards(8)
		node.DisableBinaryFraming = textOnly
		node.Client = &http.Client{Transport: memTransport{next}}
		next, front = node, node
	}
	return front, origin
}

func serveOnce(h http.Handler, path string, header http.Header) (*httptest.ResponseRecorder, error) {
	req, err := http.NewRequest(http.MethodGet, "http://front"+path, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, nil
}

func (l *ladder) gateway(captured []capturedRequest) error {
	// Handler on a hit, no socket: one node, one resident object.
	node, _ := l.memChain(1, false)
	for i := 0; i < 16 && !node.Contains(cascade.ObjectID(0)) && l.w.segment == 0; i++ {
		if _, err := serveOnce(node, "/objects/0", nil); err != nil {
			return err
		}
	}
	if l.w.segment == 0 && !node.Contains(cascade.ObjectID(0)) {
		return fmt.Errorf("ladder: object 0 was never placed at the single node")
	}
	if l.w.segment > 0 {
		// A segmented object is resident once every segment is; three
		// fetches place them all.
		for i := 0; i < 3; i++ {
			if _, err := serveOnce(node, "/objects/0", nil); err != nil {
				return err
			}
		}
	}
	var lastLen int
	var lerr error
	l.out["httpgw.handler_hit_ns"] = timeBatches(l.calls(4000, true), func(n int) {
		for i := 0; i < n; i++ {
			rec, err := serveOnce(node, "/objects/0", nil)
			if err != nil {
				lerr = err
				return
			}
			lastLen = rec.Body.Len()
		}
	})
	if lerr != nil {
		return lerr
	}
	if lastLen != l.w.objSize {
		return fmt.Errorf("ladder: handler hit returned %d bytes, want %d", lastLen, l.w.objSize)
	}

	// Origin alone, replaying requests the traced pass saw arrive there.
	if len(captured) > 0 {
		_, origin := l.memChain(0, false)
		next := 0
		l.out["httpgw.origin_ns"] = timeBatches(l.calls(4000, true), func(n int) {
			for i := 0; i < n; i++ {
				c := captured[next%len(captured)]
				next++
				if _, err := serveOnce(origin, c.path, c.header); err != nil {
					lerr = err
					return
				}
			}
		})
		if lerr != nil {
			return lerr
		}
	}

	// Whole-chain miss without sockets, binary then textual framing. Each
	// object is fetched twice: the first miss finds no descriptor anywhere,
	// the second finds one at every hop, so the DP places and a full node
	// evicts — the two kinds of miss a cold tail produces.
	for _, v := range []struct {
		name string
		text bool
	}{{"httpgw.chain_miss_ns", false}, {"httpgw.chain_miss_text_ns", true}} {
		front, _ := l.memChain(hops, v.text)
		next := 1 << 20
		l.out[v.name] = timeBatches(l.calls(1000, true), func(n int) {
			for i := 0; i < n; i++ {
				rec, err := serveOnce(front, "/objects/"+strconv.Itoa(next+i/2), nil)
				if err != nil {
					lerr = err
					return
				}
				lastLen = rec.Body.Len()
			}
			next += (n + 1) / 2
		})
		if lerr != nil {
			return lerr
		}
		if lastLen != l.w.objSize {
			return fmt.Errorf("ladder: chain miss returned %d bytes, want %d", lastLen, l.w.objSize)
		}
	}

	// The floor under everything: net/http and the kernel moving a body of
	// the workload's size over loopback, none of our code involved.
	body := store.SyntheticBody(1, l.w.objSize)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body) //nolint:errcheck // the client's length check catches a short write
	}))
	defer srv.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	buf := make([]byte, l.w.objSize+1)
	l.out["loopback.rtt_ns"] = timeBatches(l.calls(2000, true), func(n int) {
		for i := 0; i < n; i++ {
			resp, err := client.Get(srv.URL)
			if err != nil {
				lerr = err
				return
			}
			lastLen, err = readInto(resp.Body, buf)
			resp.Body.Close()
			if err != nil {
				lerr = err
				return
			}
		}
	})
	if lerr != nil {
		return lerr
	}
	if lastLen != l.w.objSize {
		return fmt.Errorf("ladder: loopback GET returned %d bytes, want %d", lastLen, l.w.objSize)
	}
	return nil
}
