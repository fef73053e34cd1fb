package runtime

import (
	"bufio"
	"bytes"
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/model"
	"cascade/internal/topology"
)

// impliedCounts is what one or more Gets must have added to the cluster-wide
// accounting, recomputed from each Result and its route alone.
type impliedCounts struct {
	requests, hits, origin int64
	messages               int64 // live hop deliveries, both passes
	down                   int64 // downstream deliveries: one miss-penalty check each
	inserts                int64
	nodeInserts            [40]int64
}

// add accounts one fault-free Get: a request served at hop k of its route
// was delivered to hops 0..k on the way up and k-1..0 on the way down; one
// the origin served crossed every hop twice.
func (wc *impliedCounts) add(r Result, hopOf map[model.NodeID]int, routeLen int) {
	wc.requests++
	k := routeLen
	if r.ServedBy == model.NoNode {
		wc.origin++
		wc.messages += int64(2 * routeLen)
	} else {
		wc.hits++
		k = hopOf[r.ServedBy]
		wc.messages += int64(2*k + 1)
	}
	wc.down += int64(k)
	wc.inserts += int64(len(r.Placed))
	for _, id := range r.Placed {
		wc.nodeInserts[id]++
	}
}

func (wc *impliedCounts) merge(o *impliedCounts) {
	wc.requests += o.requests
	wc.hits += o.hits
	wc.origin += o.origin
	wc.messages += o.messages
	wc.down += o.down
	wc.inserts += o.inserts
	for i, n := range o.nodeInserts {
		wc.nodeInserts[i] += n
	}
}

// counterSamples reads every sample of every counter-typed family out of a
// Prometheus text exposition, keyed by the sample's name and labels.
func counterSamples(t *testing.T, text []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	counter := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			counter = strings.HasSuffix(line, " counter")
			continue
		}
		if !counter || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Errorf("unparsable sample %q", line)
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// TestStatsBalanceUnderConcurrency pins what publishing a request's counts
// once, at Get's return, must not lose: under eight concurrent workers every
// scraped counter is monotone, and once they stop the cluster-wide counters,
// the per-node ones, the ledger and the auditor's check counts all equal what
// the Results the workers saw imply — deliveries recomputed from each
// Result's serving node and route, not read back from the cluster. And a
// Stats taken after a Get returned includes that Get.
func TestStatsBalanceUnderConcurrency(t *testing.T) {
	tree := topology.GenerateTree(topology.DefaultTreeConfig())
	if tree.NumCaches() != 40 {
		t.Fatalf("default tree has %d caches, the test is written for 40", tree.NumCaches())
	}
	c, err := NewCluster(Config{
		Network:       tree,
		CacheBytes:    1 << 19,
		DCacheEntries: 1024,
		AvgObjectSize: 2048,
		Shards:        8,
		EnableAudit:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaves := tree.ClientAttachPoints()
	hopOf := make([]map[model.NodeID]int, len(leaves))
	routeLen := make([]int, len(leaves))
	for i, leaf := range leaves {
		caches := tree.Route(leaf, model.NoNode).Caches
		routeLen[i] = len(caches)
		hopOf[i] = make(map[model.NodeID]int, len(caches))
		for h, id := range caches {
			hopOf[i][id] = h
		}
	}
	ctx := context.Background()
	get := func(rng *rand.Rand, zipf *rand.Zipf, wc *impliedCounts) {
		obj := model.ObjectID(zipf.Uint64())
		li := rng.Intn(len(leaves))
		r, err := c.Get(ctx, leaves[li], model.NoNode, obj, int64(1024+int(obj%7)*512))
		if err != nil || r.Degraded {
			t.Errorf("Get(%d): %+v, %v", obj, r, err)
			return
		}
		wc.add(r, hopOf[li], routeLen[li])
	}

	// Alone on the cluster, every Get's contribution is in Stats the moment
	// it returns, exactly.
	var total impliedCounts
	{
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1, 3999)
		for i := 0; i < 500; i++ {
			get(rng, zipf, &total)
			st := c.Stats()
			if st.Requests != total.requests || st.Messages != total.messages ||
				st.CacheHits != total.hits || st.Inserts != total.inserts {
				t.Fatalf("after Get %d returned: stats %+v, the walks so far imply %+v", i, st, total)
			}
		}
	}

	const workers, perWorker = 8, 20000
	var wg sync.WaitGroup
	var stop atomic.Bool
	counts := make([]impliedCounts, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 10))
			zipf := rand.NewZipf(rng, 1.2, 1, 3999)
			wc := &counts[w]
			for i := 0; i < perWorker; i++ {
				get(rng, zipf, wc)
				if i%512 == 0 {
					// Others add to the counters too, so all a worker can say
					// is that its own returned Gets are in there.
					if st := c.Stats(); st.Requests < wc.requests || st.Messages < wc.messages ||
						st.CacheHits < wc.hits || st.Inserts < wc.inserts {
						t.Errorf("worker %d after %d Gets: stats %+v miss some of its own %+v", w, i+1, st, *wc)
						return
					}
				}
			}
		}(w)
	}

	// The scraper: every counter it can see, by every route, never steps back.
	scraped := make(chan int, 1)
	go func() {
		var lastStats Stats
		var lastNodes []NodeMetrics
		lastReg := map[string]float64{}
		n := 0
		for ; !stop.Load(); n++ {
			st := c.Stats()
			if st.Requests < lastStats.Requests || st.CacheHits < lastStats.CacheHits ||
				st.Messages < lastStats.Messages || st.Inserts < lastStats.Inserts ||
				st.RoutedAround < lastStats.RoutedAround {
				t.Errorf("Stats stepped back: %+v after %+v", st, lastStats)
			}
			lastStats = st
			snap := c.MetricsSnapshot()
			for i, nm := range snap.Nodes {
				if lastNodes != nil && (nm.Inserts < lastNodes[i].Inserts || nm.Evictions < lastNodes[i].Evictions) {
					t.Errorf("node %d metrics stepped back: %+v after %+v", i, nm, lastNodes[i])
				}
			}
			lastNodes = snap.Nodes
			var buf bytes.Buffer
			if err := c.Metrics().WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
			}
			for k, v := range counterSamples(t, buf.Bytes()) {
				if v < lastReg[k] {
					t.Errorf("%s stepped back: %v after %v", k, v, lastReg[k])
				}
				lastReg[k] = v
			}
		}
		scraped <- n
	}()

	wg.Wait()
	stop.Store(true)
	if n := <-scraped; n < 2 {
		t.Fatalf("only %d scrapes ran beside the workers", n)
	}
	for w := range counts {
		total.merge(&counts[w])
	}

	st := c.Stats()
	if want := int64(500 + workers*perWorker); st.Requests != want || total.requests != want {
		t.Fatalf("requests: stats %d, results %d, want %d", st.Requests, total.requests, want)
	}
	if st.Messages != total.messages {
		t.Errorf("messages: stats %d, the walks delivered %d", st.Messages, total.messages)
	}
	if st.CacheHits != total.hits || st.CacheHits+total.origin != st.Requests {
		t.Errorf("hits: stats %d, results %d cache-served + %d origin-served of %d", st.CacheHits, total.hits, total.origin, st.Requests)
	}
	if st.Inserts != total.inserts {
		t.Errorf("inserts: stats %d, results placed %d", st.Inserts, total.inserts)
	}
	if st.RoutedAround != 0 || st.OriginFallbacks != 0 {
		t.Errorf("a fault-free run routed around %d hops and fell back %d times", st.RoutedAround, st.OriginFallbacks)
	}
	var nodeSum int64
	for i, nm := range c.MetricsSnapshot().Nodes {
		nodeSum += nm.Inserts
		if nm.Inserts != total.nodeInserts[i] {
			t.Errorf("node %d: %d inserts counted, results placed %d there", i, nm.Inserts, total.nodeInserts[i])
		}
	}
	if nodeSum != st.Inserts {
		t.Errorf("per-node inserts sum to %d, cluster counter %d", nodeSum, st.Inserts)
	}

	led := c.Ledger().Totals()
	if led.Hits != st.CacheHits {
		t.Errorf("ledger booked %d hits, %d requests were cache-served", led.Hits, st.CacheHits)
	}
	if led.Placements != st.Inserts || led.Placements+led.PlaceFailures != led.Predictions {
		t.Errorf("ledger: %d placements + %d failures against %d predictions and %d inserts", led.Placements, led.PlaceFailures, led.Predictions, st.Inserts)
	}

	aud := c.Auditor()
	if v := aud.TotalViolations(); v != 0 {
		t.Errorf("%d audit violations", v)
	}
	// One miss-penalty check per downstream delivery, one local-benefit
	// check per chosen candidate (each also a ledger prediction), at most one
	// eviction-order check per placement, and a DP spot check on every 64th
	// of the decisions that had a candidate — a subset of those that ran.
	if got := aud.Checks(audit.MissPenalty); got != total.down {
		t.Errorf("miss-penalty checks %d, downstream deliveries %d", got, total.down)
	}
	if got := aud.Checks(audit.LocalBenefit); got != led.Predictions {
		t.Errorf("local-benefit checks %d, predictions booked %d", got, led.Predictions)
	}
	if got := aud.Checks(audit.EvictionOrder); got == 0 || got > st.Inserts {
		t.Errorf("eviction-order checks %d for %d inserts", got, st.Inserts)
	}
	if got := aud.Checks(audit.DPOptimality); got == 0 || got > st.Requests/64 {
		t.Errorf("DP spot checks %d for %d requests", got, st.Requests)
	}
}
