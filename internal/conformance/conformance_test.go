// Package conformance cross-validates the three incarnations of the
// coordinated caching protocol — the trace-replay simulator scheme
// (internal/scheme driven by internal/sim), the in-process
// cluster (internal/runtime) and the HTTP gateway chain (internal/httpgw) —
// against each other. All three are thin transport adapters over
// internal/engine; replaying the same request sequence through each must
// yield the same serving node and the same placement set for every single
// request.
//
// The workload uses uniform object sizes so the three cost conventions
// coincide exactly: the simulator scales link delays by size/avgSize
// (scale 1), the cluster by size/AvgObjectSize (scale 1), and the gateway
// uses per-node static link costs.
package conformance

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/httpgw"
	"cascade/internal/model"
	"cascade/internal/runtime"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/span"
	"cascade/internal/topology"
	"cascade/internal/trace"
)

// chainNet is a single linear cascade: every client attaches at cache 0,
// the origin sits past the last cache. It is the topology an HTTP gateway
// chain physically realizes, so all three incarnations can share it.
type chainNet struct {
	route topology.Route
}

func newChainNet(upCost []float64, originLink bool) *chainNet {
	caches := make([]model.NodeID, len(upCost))
	for i := range caches {
		caches[i] = model.NodeID(i)
	}
	return &chainNet{route: topology.Route{Caches: caches, UpCost: upCost, OriginLink: originLink}}
}

func (n *chainNet) NumCaches() int                         { return len(n.route.Caches) }
func (n *chainNet) ClientAttachPoints() []model.NodeID     { return n.route.Caches[:1] }
func (n *chainNet) ServerAttachPoints() []model.NodeID     { return []model.NodeID{model.NoNode} }
func (n *chainNet) Route(_, _ model.NodeID) topology.Route { return n.route }

// recorder wraps the coordinated scheme so the simulator incarnation
// exposes each request's raw Outcome (sim.Process reports aggregated
// samples only).
type recorder struct {
	inner *scheme.Coordinated
	last  scheme.Outcome
}

func (r *recorder) Name() string                                   { return r.inner.Name() }
func (r *recorder) Configure(b map[model.NodeID]scheme.NodeBudget) { r.inner.Configure(b) }

func (r *recorder) Process(now float64, obj model.ObjectID, size int64, path scheme.Path) scheme.Outcome {
	out := r.inner.Process(now, obj, size, path)
	// Placed aliases the scheme's scratch; copy so the caller may compare
	// after the fact.
	out.Placed = append([]int(nil), out.Placed...)
	r.last = out
	return out
}

// logicalClock injects deterministic, race-safe time into the cluster and
// every gateway node.
type logicalClock struct {
	mu  sync.Mutex
	now float64
}

func (c *logicalClock) Set(t float64) { c.mu.Lock(); c.now = t; c.mu.Unlock() }
func (c *logicalClock) Now() float64  { c.mu.Lock(); defer c.mu.Unlock(); return c.now }

// gatewayChain builds origin ← node(L-1) ← … ← node0 over httptest servers
// and returns node0's base URL, the nodes bottom-up (each carries its own
// auditor, ledger and span ring — NewNode wires them by default) and
// the origin, whose decision-side observability is enabled too.
func gatewayChain(t *testing.T, upCost []float64, capacity int64, dEntries int, objSize int, clock func() float64) (string, []*httpgw.Node, *httpgw.Origin) {
	t.Helper()
	base, nodes, o, _ := closableGatewayChain(t, upCost, capacity, dEntries, objSize, clock)
	return base, nodes, o
}

// closableGatewayChain is gatewayChain plus a function that shuts the
// chain's servers down, client-facing hop first. Server.Close blocks until
// every handler has returned, so once it is through, deferred handler work
// (a hop's root span is emitted after the client already holds the body) is
// visible to the test. The servers are closed at test cleanup regardless;
// closing twice is harmless.
func closableGatewayChain(t *testing.T, upCost []float64, capacity int64, dEntries int, objSize int, clock func() float64) (string, []*httpgw.Node, *httpgw.Origin, func()) {
	t.Helper()
	o := &httpgw.Origin{Size: func(model.ObjectID) int { return objSize }}
	o.EnableObservability(64, clock)
	origin := httptest.NewServer(o)
	servers := []*httptest.Server{origin}
	upstream := origin.URL
	nodes := make([]*httpgw.Node, len(upCost))
	for i := len(upCost) - 1; i >= 0; i-- {
		n := httpgw.NewNode(model.NodeID(i), upstream, upCost[i], capacity, dEntries, clock)
		srv := httptest.NewServer(n)
		servers = append(servers, srv)
		upstream = srv.URL
		nodes[i] = n
	}
	closeAll := func() {
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
	}
	t.Cleanup(closeAll)
	return upstream, nodes, o, closeAll
}

// gatewayGet issues one request to the chain and returns the serving node
// (model.NoNode for the origin) and the sorted placement set.
func gatewayGet(t *testing.T, client *http.Client, base string, obj model.ObjectID) (model.NodeID, []model.NodeID) {
	t.Helper()
	served, placed, _ := gatewayReadCoh(t, client, base, obj)
	return served, placed
}

// decidedPlacement lists the nodes a response's X-Cascade-Decision places
// at, in wire order: the node of each entry of its second field. It is the
// suites' own reading of the wire, independent of the gateway's parser, and
// fails the test on a malformed entry.
func decidedPlacement(t *testing.T, h http.Header) []model.NodeID {
	t.Helper()
	v := h.Get(httpgw.HeaderDecision)
	fields := strings.Split(v, ";")
	if len(fields) < 2 || fields[1] == "" {
		return nil
	}
	var placed []model.NodeID
	for _, e := range strings.Split(fields[1], ",") {
		node, _, _ := strings.Cut(e, "=")
		id, err := strconv.Atoi(node)
		if err != nil {
			t.Fatalf("malformed %s %q", httpgw.HeaderDecision, v)
		}
		placed = append(placed, model.NodeID(id))
	}
	return placed
}

func sortNodes(ns []model.NodeID) []model.NodeID {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

func nodesEqual(a, b []model.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestThreeIncarnationsAgree replays one trace through all three
// incarnations in lockstep and requires, per request, identical serving
// nodes and identical placement sets. Run under -race (make conformance):
// the gateway's HTTP handlers execute on their own goroutines even for a
// serial request stream.
func TestThreeIncarnationsAgree(t *testing.T) {
	cases := []struct {
		name       string
		upCost     []float64
		originLink bool
		rel        float64
	}{
		// Hierarchical cascade: the root–origin link is real.
		{name: "hierarchy", upCost: []float64{1, 2, 4, 8}, originLink: true, rel: 0.02},
		// En-route cascade: the origin co-locates with the top cache.
		{name: "enroute", upCost: []float64{1, 3, 0}, originLink: false, rel: 0.01},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const objSize = 1000 // uniform: all cost scalings collapse to 1
			gen := trace.NewGenerator(trace.Config{
				Objects:  300,
				Servers:  8,
				Clients:  30,
				Requests: 4000,
				Duration: 7200,
				MinSize:  objSize,
				MaxSize:  objSize,
				Seed:     41,
			})
			cat := gen.Catalog()
			avg := cat.AvgSize()
			if avg != objSize {
				t.Fatalf("catalog not uniform: avg size %v", avg)
			}
			net := newChainNet(tc.upCost, tc.originLink)
			route := net.Route(0, model.NoNode)

			// Replicate sim.New's budget math so the cluster and the
			// gateway get byte-identical capacities.
			capacity := int64(tc.rel * float64(cat.TotalBytes))
			dEntries := int(3 * float64(capacity) / avg)

			// All three incarnations run with the online invariant
			// auditor and span tracing attached: conformance both
			// cross-validates the transports against each other and proves
			// the audited replay is violation-free everywhere.
			const spanCap = 64

			// Incarnation 1: the replay simulator.
			rec := &recorder{inner: scheme.NewCoordinated()}
			rec.inner.SetAuditor(audit.New(nil))
			rec.inner.SetLedger(audit.NewLedger())
			rec.inner.SetSpans(span.NewTracer(span.Policy{Rate: 1}), spanCap)
			simr, err := sim.New(sim.Config{
				Scheme: rec, Network: net, Catalog: cat,
				RelativeCacheSize: tc.rel, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Incarnation 2: the cluster.
			clk := &logicalClock{}
			cluster, err := runtime.NewCluster(runtime.Config{
				Network:       net,
				CacheBytes:    capacity,
				DCacheEntries: dEntries,
				AvgObjectSize: avg,
				Clock:         clk.Now,
				EnableAudit:   true,
				SpanCapacity:  spanCap,
				SpanSample:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			// Incarnation 3: the HTTP gateway chain (audited by default).
			base, gwNodes, gwOrigin := gatewayChain(t, tc.upCost, capacity, dEntries, objSize, clk.Now)
			for _, n := range gwNodes {
				n.EnableSpans(span.Policy{Rate: 1}, spanCap)
			}
			client := &http.Client{}

			ctx := context.Background()
			hits := 0
			for i := 0; ; i++ {
				req, ok := gen.Next()
				if !ok {
					break
				}
				clk.Set(req.Time)

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

				gwServed, gwPlaced := gatewayGet(t, client, base, req.Object)
				sortNodes(gwPlaced)

				if clRes.ServedBy != simServed || gwServed != simServed {
					t.Fatalf("request %d (obj %d): served by sim=%d cluster=%d gateway=%d",
						i, req.Object, simServed, clRes.ServedBy, gwServed)
				}
				if !nodesEqual(clPlaced, simPlaced) || !nodesEqual(gwPlaced, simPlaced) {
					t.Fatalf("request %d (obj %d): placed sim=%v cluster=%v gateway=%v",
						i, req.Object, simPlaced, clPlaced, gwPlaced)
				}
			}
			if hits == 0 {
				t.Fatal("conformance trace produced no cache hits; workload too cold to be meaningful")
			}

			// Every incarnation must have audited the whole run clean —
			// including the gateway origin, which decides every placement
			// that missed the whole chain.
			auditors := map[string]*audit.Auditor{
				"sim":            rec.inner.Auditor(),
				"cluster":        cluster.Auditor(),
				"gateway-origin": gwOrigin.Auditor(),
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
			// The span rings are the per-request record and must have
			// captured the traffic (TestSpanTreesConform compares the
			// trees); their event records log faults, writes, disk moves and
			// violations, and a run without any holds none.
			if len(rec.inner.SpanRing(0).Spans()) == 0 {
				t.Error("simulator span ring empty")
			}
			if len(cluster.DumpSpans(0).Spans) == 0 {
				t.Error("cluster span ring empty")
			}
			if len(gwNodes[0].DumpSpans().Spans) == 0 {
				t.Error("gateway span ring empty")
			}
			for name, spans := range map[string][]span.Span{
				"simulator": rec.inner.SpanRing(0).Spans(),
				"cluster":   cluster.DumpSpans(0).Spans,
				"gateway":   gwNodes[0].DumpSpans().Spans,
			} {
				if n := countEvents(spans); n != 0 {
					t.Errorf("%s span ring holds %d event records on a clean run; per-request steps are spans", name, n)
				}
			}

			assertBytesAgree(t, cluster, len(tc.upCost), gwNodes)

			// The cost ledgers must agree across incarnations too. The
			// simulator and the cluster book predictions at the decision
			// site into one shared ledger; the gateway ships each term in
			// X-Cascade-Decision and books it at the placing node — per
			// node, all three must end with the same accounts.
			closeTo := func(a, b float64) bool {
				return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
			}
			simTot := rec.inner.Ledger().Totals()
			if simTot.Predictions == 0 || simTot.Hits == 0 {
				t.Fatalf("ledger parity vacuous: sim totals %+v", simTot)
			}
			for i := range gwNodes {
				id := model.NodeID(i)
				simAcc := rec.inner.Ledger().Node(id)
				for name, acc := range map[string]audit.NodeAccount{
					"cluster": cluster.Ledger().Node(id),
					"gateway": gwNodes[i].Ledger().Node(id),
				} {
					if acc.Predictions != simAcc.Predictions || acc.Placements != simAcc.Placements ||
						acc.PlaceFailures != simAcc.PlaceFailures || acc.Hits != simAcc.Hits {
						t.Errorf("node %d: %s ledger counts %+v diverge from sim %+v", i, name, acc, simAcc)
					}
					if !closeTo(acc.PredictedGain, simAcc.PredictedGain) ||
						!closeTo(acc.RealizedSavings, simAcc.RealizedSavings) {
						t.Errorf("node %d: %s ledger sums (%g, %g) diverge from sim (%g, %g)", i, name,
							acc.PredictedGain, acc.RealizedSavings, simAcc.PredictedGain, simAcc.RealizedSavings)
					}
				}
			}
			t.Logf("%s: %d requests agreed across all three incarnations (%d cache hits, %d invariant checks, 0 violations, ledgers agree on %d predictions)",
				tc.name, gen.Len(), hits, checks, simTot.Predictions)
		})
	}
}

// TestPlacementHeaderSortedOnWire verifies the determinism fix end-to-end:
// on live traffic through a real chain, every X-Cascade-Decision lists its
// placement's node IDs in strictly ascending order (the encoding once depended on map
// iteration order, which made byte-level replay comparison impossible).
func TestPlacementHeaderSortedOnWire(t *testing.T) {
	const objSize = 500
	clk := &logicalClock{}
	base, _, _ := gatewayChain(t, []float64{1, 2, 4, 8}, 8*objSize, 64, objSize, clk.Now)
	client := &http.Client{}

	nonEmpty := 0
	for i := 0; i < 400; i++ {
		clk.Set(float64(i))
		resp, err := client.Get(fmt.Sprintf("%s/objects/%d", base, i%40))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		placed := decidedPlacement(t, resp.Header)
		if len(placed) == 0 {
			continue
		}
		nonEmpty++
		for j := 1; j < len(placed); j++ {
			if placed[j] <= placed[j-1] {
				t.Fatalf("request %d: placement %q not strictly ascending", i, resp.Header.Get(httpgw.HeaderDecision))
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no request produced a placement decision; workload too cold to be meaningful")
	}
}

// assertBytesAgree fails the test for every gateway node, and every tiered
// node among the cluster's first n, whose memory tier does not hold exactly
// the objects and bytes of its descriptor store: every copy the engine
// demoted must have taken its bytes with it.
func assertBytesAgree(t *testing.T, cluster *runtime.Cluster, n int, gw []*httpgw.Node) {
	t.Helper()
	for id := 0; id < n; id++ {
		if err := cluster.CheckBytes(model.NodeID(id)); err != nil {
			t.Errorf("cluster %v", err)
		}
	}
	for _, node := range gw {
		if err := node.CheckBytes(); err != nil {
			t.Errorf("gateway %v", err)
		}
	}
}

// countEvents counts the event records among a ring's spans — the records
// with no span ID — of the given phases, or of any phase when none is given.
func countEvents(spans []span.Span, phases ...span.Phase) int {
	n := 0
	for _, s := range spans {
		if s.ID == 0 && (len(phases) == 0 || slices.Contains(phases, s.Phase)) {
			n++
		}
	}
	return n
}
