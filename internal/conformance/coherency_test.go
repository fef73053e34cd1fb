package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/httpgw"
	"cascade/internal/model"
	"cascade/internal/runtime"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/span"
	"cascade/internal/store"
	"cascade/internal/trace"
)

// coherencyChain builds a gateway cascade like gatewayChain but with the
// engine-native coherency substrate attached: the origin owns a generation
// authority, every node runs a CAS-strict view. EnableCoherency is called
// before the httptest server starts accepting, honouring the set-before-
// serving contract. One object outside every catalog, segmentedObject, is
// three and a half times objSize and travels in objSize segments; the
// catalog's own objects sit exactly at the threshold and travel whole.
func coherencyChain(t *testing.T, upCost []float64, capacity int64, dEntries, objSize int, clock func() float64) (string, []*httpgw.Node, *countedOrigin) {
	t.Helper()
	o := &countedOrigin{o: &httpgw.Origin{
		Size: func(obj model.ObjectID) int {
			if obj == segmentedObject {
				return 7 * objSize / 2
			}
			return objSize
		},
		SegmentThreshold: int64(objSize),
		SegmentSize:      int64(objSize),
		Authority:        coherency.NewAuthority(),
	}}
	o.o.EnableObservability(64, clock)
	origin := httptest.NewServer(o)
	t.Cleanup(origin.Close)
	upstream := origin.URL
	nodes := make([]*httpgw.Node, len(upCost))
	for i := len(upCost) - 1; i >= 0; i-- {
		n := httpgw.NewNode(model.NodeID(i), upstream, upCost[i], capacity, dEntries, clock)
		n.EnableCoherency(coherency.ModeCAS)
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		upstream = srv.URL
		nodes[i] = n
	}
	return upstream, nodes, o
}

// segmentedObject is the large object of the coherency replay's last stage.
const segmentedObject model.ObjectID = 1 << 20

// segmentedObjectStage drives one large object through the gateway chain
// the coherency replay just exercised: to a writer it is one object, so one
// write of the base must reach every cached segment at every hop, and every
// reassembled body must be stamped with — and wholly made of — the one
// generation the authority holds.
func segmentedObjectStage(t *testing.T, client *http.Client, base string, nodes []*httpgw.Node, o *countedOrigin, clk *logicalClock, objSize int) {
	t.Helper()
	want := store.SyntheticBody(segmentedObject, 7*objSize/2)
	now := clk.Now()
	// read fetches the object and returns how many of its four segments the
	// origin had to serve.
	read := func(wantGen uint64) int64 {
		t.Helper()
		now += 30
		clk.Set(now)
		before := o.segment.Load()
		resp, body := dpGet(t, client, base, segmentedObject)
		if !bytes.Equal(body, want) {
			t.Fatalf("segmented object: %d bytes, not the origin's payload", len(body))
		}
		gen, _ := strconv.ParseUint(resp.Header.Get(httpgw.HeaderGen), 10, 64)
		if cur := o.o.Authority.Gen(segmentedObject); gen != wantGen || cur != wantGen {
			t.Fatalf("segmented object served at generation %d with the authority at %d, want %d", gen, cur, wantGen)
		}
		return o.segment.Load() - before
	}
	for gen := uint64(0); gen < 3; gen++ {
		// Warm until the chain holds at least part of the object.
		fromOrigin := read(gen)
		for round := 0; round < 8 && fromOrigin == 4; round++ {
			fromOrigin = read(gen)
		}
		if fromOrigin == 4 {
			t.Fatalf("generation %d: no segment was ever served from the chain", gen)
		}
		if w := gatewayWrite(t, client, base, segmentedObject); w != gen+1 {
			t.Fatalf("write assigned generation %d, want %d", w, gen+1)
		}
		for i, n := range nodes {
			if fl := n.CoherencyView().Floor(segmentedObject); fl != gen+1 {
				t.Fatalf("node %d: floor %d after the write, want %d", i, fl, gen+1)
			}
		}
		// The purge of the base reached every segment: all four come from
		// the origin again, at the new generation.
		if fromOrigin := read(gen + 1); fromOrigin != 4 {
			t.Fatalf("after write %d the origin served %d of 4 segments: the chain still answered with the old generation's", gen+1, fromOrigin)
		}
	}
	for i, n := range nodes {
		if v := n.Auditor().TotalViolations(); v != 0 {
			t.Errorf("gateway%d: %d invariant violations after the segmented stage", i, v)
		}
	}
}

// gatewayReadCoh issues one request to the chain and returns the serving
// node (model.NoNode for the origin), the sorted placement set and the
// generation of the served copy (the response's X-Cascade-Gen; absent means
// generation zero, never written).
func gatewayReadCoh(t *testing.T, client *http.Client, base string, obj model.ObjectID) (model.NodeID, []model.NodeID, uint64) {
	t.Helper()
	resp, err := client.Get(base + "/objects/" + strconv.Itoa(int(obj)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object %d: status %d", obj, resp.StatusCode)
	}
	served := model.NoNode
	if h := resp.Header.Get(httpgw.HeaderHit); h != "origin" {
		id, err := strconv.Atoi(h)
		if err != nil {
			t.Fatalf("object %d: bad %s header %q", obj, httpgw.HeaderHit, h)
		}
		served = model.NodeID(id)
	}
	placed := decidedPlacement(t, resp.Header)
	var gen uint64
	if h := resp.Header.Get(httpgw.HeaderGen); h != "" {
		if gen, err = strconv.ParseUint(h, 10, 64); err != nil {
			t.Fatalf("object %d: bad %s header %q", obj, httpgw.HeaderGen, h)
		}
	}
	return served, sortNodes(placed), gen
}

// gatewayWrite drives the origin-driven write path through the bottom of
// the chain: POST /cascade/admin/invalidate chains up to the origin (the
// sole generation authority) and every hop raises its floor and drops its
// stale copy on the unwind. Returns the object's new generation.
func gatewayWrite(t *testing.T, client *http.Client, base string, obj model.ObjectID) uint64 {
	t.Helper()
	resp, err := client.Post(fmt.Sprintf("%s/cascade/admin/invalidate?obj=%d", base, obj), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("invalidate obj %d: status %d: %s", obj, resp.StatusCode, body)
	}
	var rep struct {
		Obj int64  `json:"obj"`
		Gen uint64 `json:"gen"`
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Obj != int64(obj) {
		t.Fatalf("invalidate reply for obj %d, wanted %d", rep.Obj, obj)
	}
	return rep.Gen
}

// TestCoherencyConformance replays one mixed read/write trace through all
// three incarnations — the replay simulator scheme, the cluster and a
// gateway chain — in lockstep under CAS-strict coherency, on both cascade
// topologies. Each incarnation
// carries its own generation authority; because the write sequence is
// identical, the authorities march through identical (gen, seq) histories
// and every incarnation must agree, per request, on the serving node, the
// placement set and the generation of the served copy — and, per write, on
// the generation assigned. CAS-strict means never-serve-stale: every served
// generation must equal the authority's current generation at read time.
// After the run the per-node generation floors must be identical maps
// everywhere, every auditor must be silent, and every incarnation's span
// ring must have captured invalidation traffic.
func TestCoherencyConformance(t *testing.T) {
	cases := []struct {
		name       string
		upCost     []float64
		originLink bool
		rel        float64
	}{
		{name: "hierarchy", upCost: []float64{1, 2, 4, 8}, originLink: true, rel: 0.02},
		{name: "enroute", upCost: []float64{1, 3, 0}, originLink: false, rel: 0.01},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const objSize = 1000 // uniform: all cost scalings collapse to 1
			gen := trace.NewGenerator(trace.Config{
				Objects:  250,
				Servers:  8,
				Clients:  25,
				Requests: 2500,
				Duration: 7200,
				MinSize:  objSize,
				MaxSize:  objSize,
				Seed:     47,
			})
			cat := gen.Catalog()
			net := newChainNet(tc.upCost, tc.originLink)
			route := net.Route(0, model.NoNode)
			capacity := int64(tc.rel * float64(cat.TotalBytes))
			dEntries := int(3 * float64(capacity) / cat.AvgSize())
			const spanCap = 256

			// Incarnation 1: the replay simulator with an attached authority.
			rec := &recorder{inner: scheme.NewCoordinated()}
			rec.inner.SetAuditor(audit.New(nil))
			rec.inner.SetLedger(audit.NewLedger())
			rec.inner.SetSpans(span.NewTracer(span.Policy{}), spanCap)
			rec.inner.SetCoherency(coherency.NewAuthority(), coherency.ModeCAS, 0)
			simr, err := sim.New(sim.Config{
				Scheme: rec, Network: net, Catalog: cat,
				RelativeCacheSize: tc.rel, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Incarnation 2: the cluster under the same mode.
			clk := &logicalClock{}
			cluster, err := runtime.NewCluster(runtime.Config{
				Network:       net,
				CacheBytes:    capacity,
				DCacheEntries: dEntries,
				AvgObjectSize: cat.AvgSize(),
				Clock:         clk.Now,
				EnableAudit:   true,
				SpanCapacity:  spanCap,
				CoherencyMode: coherency.ModeCAS,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			// Incarnation 3: the gateway chain.
			gwBase, gwNodes, gwOrigin := coherencyChain(t, tc.upCost, capacity, dEntries, objSize, clk.Now)
			client := &http.Client{}

			ctx := context.Background()
			hits, writes, genServes := 0, 0, 0
			var recent []model.ObjectID
			for i := 0; ; i++ {
				req, ok := gen.Next()
				if !ok {
					break
				}
				clk.Set(req.Time)

				// Every 5th request is preceded by a write: the origin bumps
				// the generation of a recently-read (so likely cached) object
				// and pushes the invalidation down every incarnation's tree.
				if i%5 == 4 && len(recent) >= 3 {
					wobj := recent[len(recent)-3]
					simGen := rec.inner.Invalidate(wobj, req.Time)
					clGen := cluster.Invalidate(wobj)
					gwGen := gatewayWrite(t, client, gwBase, wobj)
					if clGen != simGen || gwGen != simGen {
						t.Fatalf("write %d (obj %d): gen sim=%d cluster=%d gateway=%d",
							i, wobj, simGen, clGen, gwGen)
					}
					writes++
				}
				recent = append(recent, req.Object)
				if len(recent) > 8 {
					recent = recent[1:]
				}

				simr.Process(req)
				simOut := rec.last
				simServed := model.NoNode
				if simOut.HitIndex < len(route.Caches) {
					simServed = route.Caches[simOut.HitIndex]
					hits++
				}
				simPlaced := make([]model.NodeID, 0, len(simOut.Placed))
				for _, idx := range simOut.Placed {
					simPlaced = append(simPlaced, route.Caches[idx])
				}
				sortNodes(simPlaced)

				clRes, err := cluster.Get(ctx, 0, model.NoNode, req.Object, req.Size)
				if err != nil {
					t.Fatal(err)
				}
				clPlaced := sortNodes(append([]model.NodeID(nil), clRes.Placed...))

				gwServed, gwPlaced, gwGen := gatewayReadCoh(t, client, gwBase, req.Object)

				if clRes.ServedBy != simServed || gwServed != simServed {
					t.Fatalf("request %d (obj %d): served by sim=%d cluster=%d gateway=%d",
						i, req.Object, simServed, clRes.ServedBy, gwServed)
				}
				if !nodesEqual(clPlaced, simPlaced) || !nodesEqual(gwPlaced, simPlaced) {
					t.Fatalf("request %d (obj %d): placed sim=%v cluster=%v gateway=%v",
						i, req.Object, simPlaced, clPlaced, gwPlaced)
				}
				if clRes.ServedGen != simOut.ServedGen || gwGen != simOut.ServedGen {
					t.Fatalf("request %d (obj %d): served gen sim=%d cluster=%d gateway=%d",
						i, req.Object, simOut.ServedGen, clRes.ServedGen, gwGen)
				}
				// CAS-strict: the served copy is never older than the
				// authority's current generation — zero stale serves.
				if cur := rec.inner.Authority().Gen(req.Object); simOut.ServedGen != cur {
					t.Fatalf("request %d (obj %d): CAS served gen %d, authority at %d",
						i, req.Object, simOut.ServedGen, cur)
				}
				if simOut.ServedGen > 0 {
					genServes++
				}
			}
			if hits == 0 || writes == 0 || genServes == 0 {
				t.Fatalf("degenerate workload: %d hits, %d writes, %d post-write serves", hits, writes, genServes)
			}

			// The generation floors — the invalidated set each node has
			// internalized — must be identical maps across incarnations.
			for i := range tc.upCost {
				id := model.NodeID(i)
				simFloors := rec.inner.CoherencyView(id).Floors()
				if len(simFloors) == 0 {
					t.Fatalf("node %d: simulator learned no floors despite %d writes", i, writes)
				}
				for name, floors := range map[string]map[model.ObjectID]uint64{
					"cluster": cluster.CoherencyView(id).Floors(),
					"gateway": gwNodes[i].CoherencyView().Floors(),
				} {
					if len(floors) != len(simFloors) {
						t.Fatalf("node %d: %s holds %d floors, sim %d", i, name, len(floors), len(simFloors))
					}
					for obj, g := range simFloors {
						if floors[obj] != g {
							t.Fatalf("node %d: %s floor for obj %d = %d, sim %d", i, name, obj, floors[obj], g)
						}
					}
				}
			}

			// Silence everywhere: a coherency-churned run is still a
			// conforming run.
			auditors := map[string]*audit.Auditor{
				"sim":            rec.inner.Auditor(),
				"cluster":        cluster.Auditor(),
				"gateway-origin": gwOrigin.o.Auditor(),
			}
			for i, n := range gwNodes {
				auditors[fmt.Sprintf("gateway%d", i)] = n.Auditor()
			}
			checks := int64(0)
			for name, a := range auditors {
				if v := a.TotalViolations(); v != 0 {
					t.Errorf("%s: %d invariant violations on a conforming run", name, v)
				}
				for _, iv := range audit.Invariants() {
					checks += a.Checks(iv)
				}
			}
			if checks == 0 {
				t.Fatal("auditors attached but no checks ran")
			}

			// Every incarnation's span ring must have captured the
			// invalidation traffic as event records.
			for name, spans := range map[string][]span.Span{
				"simulator": rec.inner.SpanRing(0).Spans(),
				"cluster":   cluster.DumpSpans(0).Spans,
				"gateway":   gwNodes[0].DumpSpans().Spans,
			} {
				if countEvents(spans, span.PhaseInvalidate) == 0 {
					t.Errorf("%s span ring has no invalidate records", name)
				}
			}
			segmentedObjectStage(t, client, gwBase, gwNodes, gwOrigin, clk, objSize)
			assertBytesAgree(t, cluster, len(tc.upCost), gwNodes)
			t.Logf("%s: %d requests + %d writes agreed across three incarnations (%d cache hits, %d reads at gen>0, %d invariant checks, 0 violations)",
				tc.name, gen.Len(), writes, hits, genServes, checks)
		})
	}
}
