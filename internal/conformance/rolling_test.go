package conformance

import (
	"context"
	"net/http"
	"strconv"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/controlplane"
	"cascade/internal/model"
	"cascade/internal/runtime"
	"cascade/internal/scheme"
	"cascade/internal/sim"
	"cascade/internal/span"
	"cascade/internal/trace"
)

// Parent gives the cluster a spill target on the linear cascade: each
// node's parent is the next cache toward the origin (model.NoNode for the
// top — its spill has nowhere to go, as on the other transports).
func (n *chainNet) Parent(id model.NodeID) model.NodeID {
	for i, c := range n.route.Caches {
		if c == id && i+1 < len(n.route.Caches) {
			return n.route.Caches[i+1]
		}
	}
	return model.NoNode
}

// TestDrainAdmitCycleConforms replays one trace through all three
// incarnations while a mid-chain node drains out and later rejoins. Every
// request — before, during and after the reconfiguration — must agree on
// the serving node and the placement set:
//
//   - the simulator ships an explicit "no descriptor" relay entry and skips
//     the node's DownStep,
//   - the cluster routes around the node and folds its link cost,
//   - the gateway node relays with a "-" path entry.
//
// Three different mechanisms, one wire meaning. The drain's spill must also
// land identically: the parent's d-cache learns the departing node's
// descriptors on every transport.
func TestDrainAdmitCycleConforms(t *testing.T) {
	const (
		objSize  = 1000
		drainAt  = 700  // request index of the drain
		admitAt  = 1500 // request index of the re-admission
		drainTgt = model.NodeID(1)
	)
	upCost := []float64{1, 2, 4, 8}
	gen := trace.NewGenerator(trace.Config{
		Objects:  250,
		Servers:  8,
		Clients:  30,
		Requests: 2400,
		Duration: 7200,
		MinSize:  objSize,
		MaxSize:  objSize,
		Seed:     43,
	})
	cat := gen.Catalog()
	net := newChainNet(upCost, true)
	route := net.Route(0, model.NoNode)

	const rel = 0.02
	capacity := int64(rel * float64(cat.TotalBytes))
	dEntries := int(3 * float64(capacity) / cat.AvgSize())
	const spanCap = 64

	rec := &recorder{inner: scheme.NewCoordinated()}
	rec.inner.SetAuditor(audit.New(nil))
	rec.inner.SetSpans(span.NewTracer(span.Policy{}), spanCap)
	simr, err := sim.New(sim.Config{
		Scheme: rec, Network: net, Catalog: cat,
		RelativeCacheSize: rel, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	clk := &logicalClock{}
	cluster, err := runtime.NewCluster(runtime.Config{
		Network:       net,
		CacheBytes:    capacity,
		DCacheEntries: dEntries,
		AvgObjectSize: cat.AvgSize(),
		Clock:         clk.Now,
		EnableAudit:   true,
		SpanCapacity:  spanCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	base, gwNodes, gwOrigin := gatewayChain(t, upCost, capacity, dEntries, objSize, clk.Now)
	client := &http.Client{}

	// The gateway chain wires node i's server as node i-1's upstream; the
	// draining node's own URL is the upstream of the node below it.
	gwURL := func(id model.NodeID) string {
		if id == 0 {
			return base
		}
		return gwNodes[id-1].Upstream
	}
	gwAdmin := func(id model.NodeID, action string) *http.Response {
		resp, err := client.Post(gwURL(id)+"/cascade/admin/"+action, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	ctx := context.Background()
	hits, relayHits := 0, 0
	for i := 0; ; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		clk.Set(req.Time)

		switch i {
		case drainAt:
			// Drain the target on all three transports at the same logical
			// time. The simulator's spill is handed to the parent by the
			// caller; the cluster and the gateway ship it themselves.
			snaps := rec.inner.Drain(drainTgt, req.Time)
			if got := rec.inner.Absorb(net.Parent(drainTgt), snaps, req.Time); got < 0 {
				t.Fatal("simulator absorb failed")
			}
			if !cluster.Drain(ctx, drainTgt) {
				t.Fatal("cluster drain refused")
			}
			if resp := gwAdmin(drainTgt, "drain"); resp.StatusCode != http.StatusOK {
				t.Fatalf("gateway drain status %d", resp.StatusCode)
			}
			if got := cluster.ControlPlane().StateOf(drainTgt); got != controlplane.Removed {
				t.Fatalf("cluster membership after drain = %v", got)
			}
			if len(cluster.Failed()) != 0 {
				t.Fatal("a drained node must not count as failed")
			}
		case admitAt:
			if !rec.inner.Admit(drainTgt) {
				t.Fatal("simulator admit refused")
			}
			if !cluster.Admit(drainTgt) {
				t.Fatal("cluster admit refused")
			}
			if resp := gwAdmin(drainTgt, "admit"); resp.StatusCode != http.StatusOK {
				t.Fatalf("gateway admit status %d", resp.StatusCode)
			}
		}

		simr.Process(req)
		simOut := rec.last
		simServed := model.NoNode
		if simOut.HitIndex < len(route.Caches) {
			simServed = route.Caches[simOut.HitIndex]
			hits++
			if i >= drainAt && i < admitAt {
				relayHits++
			}
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
		for _, p := range simPlaced {
			if p == drainTgt && i >= drainAt && i < admitAt {
				t.Fatalf("request %d: placement on the drained node", i)
			}
		}
	}
	if hits == 0 || relayHits == 0 {
		t.Fatalf("workload too cold to be meaningful: %d hits (%d while drained)", hits, relayHits)
	}

	// The spill reached the parent identically: every descriptor the
	// simulator's parent d-cache knows, the cluster's and the gateway's
	// know too (and vice versa, via the same Absorb semantics — spot-check
	// a sample of the object space).
	parent := net.Parent(drainTgt)
	agree := 0
	for obj := model.ObjectID(0); obj < 250; obj++ {
		want := rec.inner.DCache(parent).Contains(obj)
		if cluster.DCacheContains(parent, obj) != want {
			t.Fatalf("object %d: parent d-cache sim=%v cluster=%v", obj, want, !want)
		}
		if want {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("parent d-cache comparison vacuous")
	}

	// Clean audits everywhere, through two membership transitions.
	auditors := map[string]*audit.Auditor{
		"sim":            rec.inner.Auditor(),
		"cluster":        cluster.Auditor(),
		"gateway-origin": gwOrigin.Auditor(),
	}
	for i, n := range gwNodes {
		auditors["gateway"+strconv.Itoa(i)] = n.Auditor()
	}
	for name, a := range auditors {
		if v := a.TotalViolations(); v != 0 {
			t.Errorf("%s: %d invariant violations across the drain/admit cycle", name, v)
		}
	}

	// The cluster and the gateway recorded the same membership
	// transitions at the drained node: drain, remove, admit.
	clMember := countEvents(cluster.DumpSpans(drainTgt).Spans, span.PhaseMembership)
	gwMember := countEvents(gwNodes[drainTgt].DumpSpans().Spans, span.PhaseMembership)
	if clMember != 3 || gwMember != 3 {
		t.Errorf("membership records at the drained node: cluster %d, gateway %d; want 3 each", clMember, gwMember)
	}

	// Membership landed back where it started on every transport.
	if got := cluster.ControlPlane().StateOf(drainTgt); got != controlplane.Active {
		t.Errorf("cluster membership after admit = %v", got)
	}
	if got := gwNodes[drainTgt].Member(); got != controlplane.Active {
		t.Errorf("gateway membership after admit = %v", got)
	}
	if rec.inner.Draining(drainTgt) {
		t.Error("simulator still draining after admit")
	}
	assertBytesAgree(t, cluster, len(upCost), gwNodes)
	t.Logf("drain/admit cycle: %d requests agreed (%d hits, %d while drained), spill parity on %d descriptors",
		gen.Len(), hits, relayHits, agree)
}
