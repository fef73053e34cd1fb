package httpgw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cascade/internal/coherency"
	"cascade/internal/model"
	"cascade/internal/store"
)

// revalidationAnswers wraps a node's upstream transport and counts the
// answers to its conditional GETs (TTL revalidations) by status.
type revalidationAnswers struct {
	rt                 http.RoundTripper
	notModified, other atomic.Int64
}

func (c *revalidationAnswers) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err == nil && r.Header.Get("If-None-Match") != "" {
		if resp.StatusCode == http.StatusNotModified {
			c.notModified.Add(1)
		} else {
			c.other.Add(1)
		}
	}
	return resp, err
}

// TestGatewayStepsHammer runs the gateway's hop steps concurrently, as
// TestTieredStepsHammer runs the cluster's: a 3-node CAS chain of sharded
// nodes with spill tiers and a short TTL takes GETs — hits, misses, disk
// promotions and revalidations answered 304 (at the top node, whose
// upstream is the origin) and 200 (below it) — beside invalidations and
// drain/admit cycles of the middle node. Every answer must be the origin's
// bytes at or above the generation of every write completed before it
// started; right after each drain the middle node must hold no copy (the
// drain fence waited out every step that saw it Active); and at the end
// every node's bytes must match its descriptors.
func TestGatewayStepsHammer(t *testing.T) {
	const objects, size, workers, perWorker = 48, 1024, 6, 300
	var tick atomic.Int64
	clock := func() float64 { return float64(tick.Add(1)) * 1e-4 }
	o := &Origin{Size: func(model.ObjectID) int { return size }, Authority: coherency.NewAuthority()}
	servers := []*httptest.Server{httptest.NewServer(o)}
	upstream := servers[0].URL
	nodes := make([]*Node, 3)
	answers := make([]*revalidationAnswers, 3)
	for i := len(nodes) - 1; i >= 0; i-- {
		n := NewNode(model.NodeID(i), upstream, float64(i+1), 16*size, 256, clock)
		n.EnableCoherency(coherency.ModeCAS)
		n.SetShards(4)
		if err := n.EnableSpill(t.TempDir(), 0, 0); err != nil {
			t.Fatal(err)
		}
		n.TTL = 0.05
		answers[i] = &revalidationAnswers{rt: NewUpstreamClient(DefaultUpstreamTimeout).Transport}
		n.Client = &http.Client{Transport: answers[i]}
		srv := httptest.NewServer(n)
		servers = append(servers, srv)
		nodes[i], upstream = n, srv.URL
	}
	front, mid := upstream, servers[2].URL
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers + 2}}
	defer func() {
		client.CloseIdleConnections()
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
		for _, a := range answers {
			a.rt.(interface{ CloseIdleConnections() }).CloseIdleConnections()
		}
	}()
	post := func(base, path string) (int, error) {
		resp, err := client.Post(base+path, "application/json", nil)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// written[obj] is the generation of the last write to obj that
	// completed: an answer begun after it may not be older.
	var written [objects]atomic.Uint64
	errs := make(chan error, workers+1)
	var wg sync.WaitGroup
	var stop atomic.Bool // an error ends every loop
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Half the readers enter at the middle node, which then places
		// often: a drain has steps to fence.
		entry := []string{front, mid}[w%2]
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < perWorker && !stop.Load(); i++ {
				obj := rng.Intn(objects)
				if rng.Intn(16) == 0 {
					resp, err := client.Post(front+"/cascade/admin/invalidate?obj="+strconv.Itoa(obj), "application/json", nil)
					if err != nil {
						errs <- err
						return
					}
					var rep invalidateReply
					err = json.NewDecoder(resp.Body).Decode(&rep)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("invalidate %d: status %d", obj, resp.StatusCode)
					}
					if err != nil {
						errs <- err
						return
					}
					for cur := written[obj].Load(); cur < rep.Gen && !written[obj].CompareAndSwap(cur, rep.Gen); cur = written[obj].Load() {
					}
					continue
				}
				floor := written[obj].Load()
				resp, err := client.Get(entry + "/objects/" + strconv.Itoa(obj))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				gen, _ := parseGen(resp.Header.Get(HeaderGen))
				switch {
				case err != nil:
				case resp.StatusCode != http.StatusOK:
					err = fmt.Errorf("object %d: status %d: %s", obj, resp.StatusCode, body)
				case !bytes.Equal(body, store.SyntheticBody(model.ObjectID(obj), size)):
					err = fmt.Errorf("object %d: %d bytes, not the origin's", obj, len(body))
				case gen < floor:
					err = fmt.Errorf("object %d served at generation %d after a write completed at %d", obj, gen, floor)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	// The middle node drains and rejoins for as long as the traffic runs.
	traffic := make(chan struct{})
	go func() {
		wg.Wait()
		close(traffic)
	}()
	var cycles int
	drainer := make(chan struct{})
	go func() {
		defer close(drainer)
		for c := 0; !stop.Load(); c++ {
			select {
			case <-traffic:
				cycles = c
				return
			default:
			}
			code, err := post(mid, "/cascade/admin/drain")
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("drain %d: status %d", c, code)
			}
			if err == nil {
				if held := nodes[1].st.StoreLen(); held != 0 {
					err = fmt.Errorf("drain %d returned with %d copies still at the drained node", c, held)
				}
			}
			if err == nil {
				if code, err = post(mid, "/cascade/admin/admit"); err == nil && code != http.StatusOK {
					err = fmt.Errorf("admit %d: status %d", c, code)
				}
			}
			if err != nil {
				errs <- err
				return
			}
			// Let the rejoined node take a few steps before the next drain.
			for steps := nodes[1].misses.Load() + 4; nodes[1].misses.Load() < steps && !stop.Load(); {
				select {
				case <-traffic:
					cycles = c + 1
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
		}
	}()
	go func() {
		<-traffic
		<-drainer
		close(errs)
	}()
	for err := range errs {
		stop.Store(true)
		t.Error(err)
	}
	bytesMatchDescriptors(t, nodes)
	for _, n := range nodes {
		if v := n.Auditor().TotalViolations(); v != 0 {
			t.Errorf("node %d: %d audit violations under concurrency", n.ID, v)
		}
	}
	var hits, misses, promotions int64
	for _, n := range nodes {
		hits, misses, promotions = hits+n.hits.Load(), misses+n.misses.Load(), promotions+n.promotions.Load()
	}
	var notModified, other int64
	for _, a := range answers {
		notModified, other = notModified+a.notModified.Load(), other+a.other.Load()
	}
	t.Logf("%d drain/admit cycles; hits %d, misses %d, promotions %d, revalidations answered 304: %d, otherwise: %d",
		cycles, hits, misses, promotions, notModified, other)
	if !t.Failed() && (cycles == 0 || hits == 0 || misses == 0 || promotions == 0 || notModified == 0 || other == 0) {
		t.Error("the traffic did not reach every kind of step")
	}
}

// TestRevalidationKeepsNewerPlacement: a 304 refresh that races a placement
// of the same object at a newer generation must leave the newer copy as it
// stands — its bytes at its descriptor's generation — rather than write back
// the copy the revalidation read. The placement runs from inside the
// conditional GET's round trip: a read whose floor the resident copy fails.
func TestRevalidationKeepsNewerPlacement(t *testing.T) {
	old, fresh := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100)
	var now atomic.Int64
	n := NewNode(0, "http://upstream.invalid", 1, 1<<20, 100, func() float64 { return float64(now.Load()) })
	n.EnableCoherency(coherency.ModeCAS)
	n.TTL = 10
	n.Client = &http.Client{Transport: stubUpstream(func(r *http.Request) *http.Response {
		if r.Header.Get("If-None-Match") == "" {
			body, gen := old, "1"
			if r.Header.Get(HeaderGen) == "2" {
				body, gen = fresh, "2"
			}
			return upstreamReply(http.StatusOK, int64(len(body)), body, HeaderDecision, "0;0=0", HeaderGen, gen, "ETag", etagOf(body))
		}
		req := httptest.NewRequest(http.MethodGet, "/objects/7", nil)
		req.Header.Set(HeaderGen, "2")
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get(HeaderGen) != "2" {
			t.Errorf("read at floor 2 during the revalidation: status %d, generation %q", rec.Code, rec.Header().Get(HeaderGen))
		}
		return upstreamReply(http.StatusNotModified, 0, nil)
	})}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/7", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusOK || !n.Contains(7) {
		t.Fatalf("status %d, cached %v: want generation 1 placed", rec.Code, n.Contains(7))
	}
	now.Store(20)
	if rec := get(); rec.Code != http.StatusOK || n.revalidations.Load() != 1 {
		t.Fatalf("status %d, %d revalidations: want the old copy revalidated by a 304", rec.Code, n.revalidations.Load())
	}
	if body, meta, src := n.bodies.Get(7); src != store.SrcMemory || meta.Gen != 2 || !bytes.Equal(body, fresh) {
		t.Fatalf("resident bytes: tier %d, generation %d, fresh %v; want the generation-2 placement's in memory", src, meta.Gen, bytes.Equal(body, fresh))
	}
	bytesMatchDescriptors(t, []*Node{n})
	if rec := get(); rec.Header().Get(HeaderHit) != "0" || rec.Header().Get(HeaderGen) != "2" {
		t.Fatalf("next read: hit %q at generation %q; want a hit at 2", rec.Header().Get(HeaderHit), rec.Header().Get(HeaderGen))
	}
}
