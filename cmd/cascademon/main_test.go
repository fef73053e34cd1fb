package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade"
)

// gateChain assembles an in-process origin ← 3-gateway chain, the same
// shape `make coherency` drives, and returns the edge URL.
func gateChain(t *testing.T) string {
	t.Helper()
	origin := httptest.NewServer(cascade.NewHTTPOrigin(func(cascade.ObjectID) int { return 800 }))
	t.Cleanup(origin.Close)
	upstream := origin.URL
	clock := cascade.WallClock()
	for i := 2; i >= 0; i-- {
		n := cascade.NewHTTPCacheNode(cascade.NodeID(i), upstream, 0.1, 1<<22, 256, clock)
		srv := httptest.NewServer(n)
		t.Cleanup(srv.Close)
		upstream = srv.URL
	}
	return upstream
}

// drive runs a small closed-loop Zipf-ish load against the edge until
// stop closes — cascadeload's discipline at smoke size.
func drive(t *testing.T, edge string, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for u := 0; u < 4; u++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.2, 1, 199)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(edge + "/objects/" + strconv.FormatUint(zipf.Uint64(), 10))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(int64(u))
	}
	return &wg
}

// TestSLOGate is `make slo`: cascademon watches an in-process gateway
// chain under load and must pass at the declared SLOs; flipping the
// hit-ratio floor above what the chain can achieve must exit non-zero.
func TestSLOGate(t *testing.T) {
	edge := gateChain(t)

	// Warm the caches so the chain absorbs the steady state: three passes
	// over the hot set (seed descriptors, place copies, then hits).
	for pass := 0; pass < 3; pass++ {
		for obj := 0; obj < 50; obj++ {
			resp, err := http.Get(edge + "/objects/" + strconv.Itoa(obj))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}

	stop := make(chan struct{})
	wg := drive(t, edge, stop)
	defer func() { close(stop); wg.Wait() }()

	achievable := config{
		edge:        edge,
		interval:    50 * time.Millisecond,
		total:       700 * time.Millisecond,
		windows:     []time.Duration{200 * time.Millisecond, time.Second},
		sloP99:      2 * time.Second, // loopback chain: generous
		sloHit:      0.10,            // warm Zipf head: comfortably above
		sloStaleMax: 0,               // no writers → zero-stale must hold
	}
	var dash strings.Builder
	code, err := run(achievable, &dash)
	if err != nil {
		t.Fatalf("monitor error: %v\n%s", err, dash.String())
	}
	if code != 0 {
		t.Fatalf("achievable SLOs breached (exit %d):\n%s", code, dash.String())
	}
	for _, want := range []string{"cascademon", "e2e hit", "SLO burn rates", "hit_ratio", "SLO OK"} {
		if !strings.Contains(dash.String(), want) {
			t.Fatalf("dashboard missing %q:\n%s", want, dash.String())
		}
	}

	// Negative gate: a hit-ratio floor no cascade can reach (impossible
	// while any request escapes to the origin) must exit non-zero.
	impossible := achievable
	impossible.total = 300 * time.Millisecond
	impossible.sloHit = 0.999
	var dash2 strings.Builder
	code, err = run(impossible, &dash2)
	if err != nil {
		t.Fatalf("monitor error on negative gate: %v", err)
	}
	if code == 0 {
		t.Fatalf("unachievable hit floor passed the gate:\n%s", dash2.String())
	}
	if !strings.Contains(dash2.String(), "SLO BREACH") || !strings.Contains(dash2.String(), "hit_ratio") {
		t.Fatalf("breach not reported:\n%s", dash2.String())
	}
}

// TestOnceAgainstDeadEdge pins the error path: a monitor pointed at
// nothing reports an error, not a verdict.
func TestOnceAgainstDeadEdge(t *testing.T) {
	cfg := config{edge: "http://127.0.0.1:1", once: true, interval: time.Millisecond,
		windows: []time.Duration{time.Second}}
	if _, err := run(cfg, &strings.Builder{}); err == nil {
		t.Fatal("dead edge produced no error")
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-edge", "http://x", "-windows", "10s, 1m", "-slo-p99", "250ms", "-slo-hit", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.windows) != 2 || cfg.windows[0] != 10*time.Second || cfg.windows[1] != time.Minute {
		t.Fatalf("windows parsed to %v", cfg.windows)
	}
	if cfg.sloP99 != 250*time.Millisecond || cfg.sloHit != 0.5 || cfg.sloStaleMax != -1 {
		t.Fatalf("slos parsed to %+v", cfg)
	}
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("missing -edge accepted")
	}
	if _, err := parseFlags([]string{"-edge", "x", "-windows", "nope"}); err == nil {
		t.Fatal("malformed window accepted")
	}
}
