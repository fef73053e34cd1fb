package httpgw

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cascade/internal/controlplane"
	"cascade/internal/model"
	"cascade/internal/span"
)

// TestAdmitDuringDrainRefused admits a node while its drain is still
// shipping descriptors upstream: the admit must refuse with 409 (the node is
// draining, and only a removed node rejoins, as in runtime.Cluster.Admit),
// and the drain must still end with the node removed, after which an admit
// succeeds.
func TestAdmitDuringDrainRefused(t *testing.T) {
	origin := &Origin{Size: func(model.ObjectID) int { return 500 }}
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce sync.Once
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cascade/admin/absorb" {
			origin.ServeHTTP(w, r)
			return
		}
		enterOnce.Do(func() { close(entered) })
		<-release
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		writeJSON(w, http.StatusOK, controlState{Member: "active"})
	}))
	defer up.Close()
	var now float64
	var mu sync.Mutex
	node := NewNode(0, up.URL, 1, 100000, 100, func() float64 { mu.Lock(); defer mu.Unlock(); return now })
	srv := httptest.NewServer(node)
	defer srv.Close()
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // runs before the servers close, so no handler stays blocked

	// Warm the node so the drain has descriptors to ship.
	for i := 0; i < 2; i++ {
		mu.Lock()
		now = float64(10 * i)
		mu.Unlock()
		get(t, srv.URL, 42)
	}

	type reply struct {
		code int
		st   controlState
		err  error
	}
	drained := make(chan reply, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/cascade/admin/drain", "", nil)
		if err != nil {
			drained <- reply{err: err}
			return
		}
		r := reply{code: resp.StatusCode}
		r.err = json.NewDecoder(resp.Body).Decode(&r.st)
		resp.Body.Close()
		drained <- r
	}()
	<-entered

	code, st := postJSON(t, srv.URL+"/cascade/admin/admit")
	if code != http.StatusConflict || st.Member != "draining" {
		t.Errorf("admit during the drain: status %d, membership %q; want 409, draining", code, st.Member)
	}
	unblock()
	r := <-drained
	if r.err != nil || r.code != http.StatusOK || r.st.Member != "removed" {
		t.Fatalf("drain: status %d, membership %q, err %v; want 200, removed", r.code, r.st.Member, r.err)
	}
	if code, st := postJSON(t, srv.URL+"/cascade/admin/admit"); code != http.StatusOK || st.Member != "active" {
		t.Fatalf("admit after the drain: status %d, membership %q; want 200, active", code, st.Member)
	}
}

// TestControlPlaneRecord runs one scripted sequence of control-plane
// transitions at one node — a drain, an admit, a health override to down
// and back, three upstream-probe transitions — and pins, after each step, the
// epoch the admin endpoint reports and the event records the node's ring
// gained: A is the epoch after the transition, N the membership (membership
// records) or health (health records), and B is 1 on the upstream probe's
// records only.
func TestControlPlaneRecord(t *testing.T) {
	base, nodes, _ := chain(t, 2, 100000)
	edge, upURL := nodes[0], nodes[0].Upstream
	type rec struct {
		phase span.Phase
		a, b  float64
		n     int
	}
	seen := 0
	check := func(step string, epoch uint64, want ...rec) {
		t.Helper()
		resp, err := http.Get(base + "/cascade/admin/health")
		if err != nil {
			t.Fatal(err)
		}
		var st controlState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.Epoch != epoch {
			t.Fatalf("%s: admin epoch %d (err %v), want %d", step, st.Epoch, err, epoch)
		}
		var got []rec
		for _, e := range events(edge.DumpSpans().Spans) {
			if e.Phase != span.PhaseMembership && e.Phase != span.PhaseHealth {
				continue
			}
			if e.Node != edge.ID {
				t.Fatalf("%s: record for node %d, want %d", step, e.Node, edge.ID)
			}
			got = append(got, rec{e.Phase, e.A, e.B, e.N})
		}
		if len(got) != seen+len(want) {
			t.Fatalf("%s: %d control records, want %d: %+v", step, len(got), seen+len(want), got)
		}
		for i, w := range want {
			if g := got[seen+i]; g != w {
				t.Fatalf("%s: record %d = %+v, want %+v", step, i, g, w)
			}
		}
		seen = len(got)
	}
	post := func(url string) {
		t.Helper()
		if code, _ := postJSON(t, url); code != http.StatusOK {
			t.Fatalf("POST %s: status %d", url, code)
		}
	}
	mem, hl := span.PhaseMembership, span.PhaseHealth

	check("start", 0)
	post(base + "/cascade/admin/drain")
	check("drain", 2, rec{mem, 1, 0, 1}, rec{mem, 2, 0, 2})
	post(base + "/cascade/admin/admit")
	check("admit", 3, rec{mem, 3, 0, 0})
	post(base + "/cascade/admin/health?state=down")
	check("override down", 4, rec{hl, 4, 0, 2})
	post(base + "/cascade/admin/health?state=healthy")
	check("override healthy", 5, rec{hl, 5, 0, 0})

	// Three failed probes: the first makes the upstream suspect, the third
	// down; two successful ones make it healthy.
	probe := func(want string) {
		t.Helper()
		if h := edge.ProbeUpstream(); h.String() != want {
			t.Fatalf("probe: upstream %v, want %s", h, want)
		}
	}
	post(upURL + "/cascade/admin/health?state=down")
	probe("suspect")
	check("upstream suspect", 6, rec{hl, 6, 1, 1})
	probe("suspect")
	probe("down")
	check("upstream down", 7, rec{hl, 7, 1, 2})
	post(upURL + "/cascade/admin/health?state=healthy")
	probe("down")
	probe("healthy")
	check("upstream healthy", 8, rec{hl, 8, 1, 0})
}

// TestProbedDownHoldsUnderTraffic: at a node whose prober runs, only probes
// count as the upstream's successes. An upstream marked down still serves,
// so the GETs between probes succeed; were they counted, each would reset
// the probes' failure count and the upstream would never reach Down.
func TestProbedDownHoldsUnderTraffic(t *testing.T) {
	base, nodes, _ := chain(t, 2, 100000)
	edge := nodes[0]
	if code, _ := postJSON(t, edge.Upstream+"/cascade/admin/health?state=down"); code != http.StatusOK {
		t.Fatal("override failed")
	}
	for probe := 1; probe <= 3; probe++ {
		for i := 0; i < 5; i++ {
			if resp, body := get(t, base, 10*probe+i); resp.StatusCode != http.StatusOK || len(body) != 500 || resp.Header.Get(headerDegraded) != "" {
				t.Fatalf("GET before probe %d: status %d, %d bytes, %v", probe, resp.StatusCode, len(body), resp.Header)
			}
		}
		got, want := edge.ProbeUpstream(), controlplane.Suspect
		if probe == 3 {
			want = controlplane.Down
		}
		if got != want {
			t.Fatalf("probe %d: upstream %v, want %v", probe, got, want)
		}
	}
}
