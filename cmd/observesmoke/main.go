// Command observesmoke is the `make observe` driver: it builds cascadegw,
// boots an origin → gateway → edge gateway chain on ephemeral ports with the
// -metrics listener enabled, plus an untraced gateway below the first,
// issues a few requests, and asserts that the Prometheus scrape carries the
// key gateway series — including every cascade_audit_*_total invariant
// series at zero violations on this clean run, and the cascade_ledger_*
// accounting series — that the untraced gateway's /cascade/debug/spans
// dump keeps its events (the invalidate after the admin write), that the
// origin's ring holds decide spans only (no audit violation), that the
// origin's decision-side auditor reports checks with zero violations on its
// own /cascade/metrics, that one request's span
// trace, stitched from two hops' /cascade/debug/spans dumps, carries both
// protocol passes with their attributes (f on the up span, the chosen count
// on the decide span, the placement on the down span), and that an
// origin-served request's tree holds lookup/up/down at every hop plus the
// origin's decide span agreeing with the placement and predicted terms of
// the X-Cascade-Decision header the client saw. Exit status 0 means the
// observability surface of the deployed binary works end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cascade/internal/audit"
	"cascade/internal/span"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "observesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("observesmoke: PASS")
}

func run() error {
	goBin := flag.String("go", "go", "go toolchain binary used to build cascadegw")
	keepLogs := flag.Bool("v", false, "stream gateway stderr instead of discarding it")
	flag.Parse()

	tmp, err := os.MkdirTemp("", "observesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "cascadegw")
	build := exec.Command(*goBin, "build", "-o", bin, "./cmd/cascadegw")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building cascadegw: %w", err)
	}

	originAddr, err := freeAddr()
	if err != nil {
		return err
	}
	gwAddr, err := freeAddr()
	if err != nil {
		return err
	}
	metricsAddr, err := freeAddr()
	if err != nil {
		return err
	}
	edgeAddr, err := freeAddr()
	if err != nil {
		return err
	}
	plainAddr, err := freeAddr()
	if err != nil {
		return err
	}

	logs := io.Discard
	if *keepLogs {
		logs = os.Stderr
	}
	origin, err := start(bin, logs, "-origin", "-listen", originAddr, "-object-size", "2048",
		"-coherency", "cas", "-spans", "1", "-span-capacity", "128")
	if err != nil {
		return err
	}
	defer stop(origin)
	gw, err := start(bin, logs,
		"-listen", gwAddr, "-upstream", "http://"+originAddr,
		"-id", "0", "-capacity", "1MB", "-metrics", metricsAddr,
		"-coherency", "cas", "-spans", "1", "-span-capacity", "128")
	if err != nil {
		return err
	}
	defer stop(gw)
	// A second hop below the gateway, driven only by the span check at the
	// end: a decide span with candidates needs a cache serving a request
	// that climbed through another cache.
	edge, err := start(bin, logs,
		"-listen", edgeAddr, "-upstream", "http://"+gwAddr,
		"-id", "1", "-capacity", "1MB",
		"-coherency", "cas", "-spans", "1", "-span-capacity", "128")
	if err != nil {
		return err
	}
	defer stop(edge)
	// An untraced gateway below the first, where the write enters.
	plain, err := start(bin, logs, "-listen", plainAddr, "-upstream", "http://"+gwAddr, "-id", "2", "-coherency", "cas")
	if err != nil {
		return err
	}
	defer stop(plain)

	for _, addr := range []string{originAddr, gwAddr, metricsAddr, edgeAddr, plainAddr} {
		if err := waitListening(addr, 5*time.Second); err != nil {
			return err
		}
	}

	// Drive a little traffic: a cold miss, then repeats that may hit once
	// the placement decision lands a copy at the gateway.
	for i := 0; i < 4; i++ {
		resp, err := http.Get("http://" + gwAddr + "/objects/7")
		if err != nil {
			return fmt.Errorf("GET objects/7: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	// One write through the chain: the origin bumps the generation, both
	// gateways apply the invalidation on the unwind — the coherency series
	// and the untraced gateway's invalidate record below must reflect it.
	wresp, err := http.Post("http://"+plainAddr+"/cascade/admin/invalidate?obj=7", "application/json", nil)
	if err != nil {
		return fmt.Errorf("POST invalidate: %w", err)
	}
	io.Copy(io.Discard, wresp.Body) //nolint:errcheck
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST invalidate: status %d", wresp.StatusCode)
	}
	// Refetch at the new generation.
	rresp, err := http.Get("http://" + gwAddr + "/objects/7")
	if err != nil {
		return fmt.Errorf("GET objects/7 after write: %w", err)
	}
	io.Copy(io.Discard, rresp.Body) //nolint:errcheck
	rresp.Body.Close()
	if g := rresp.Header.Get("X-Cascade-Gen"); g != "1" {
		return fmt.Errorf("post-write read served generation %q, want 1", g)
	}

	// The dedicated -metrics listener and the public /cascade/metrics
	// route must both serve the key series.
	for _, url := range []string{
		"http://" + metricsAddr + "/metrics",
		"http://" + gwAddr + "/cascade/metrics",
	} {
		body, err := fetch(url)
		if err != nil {
			return err
		}
		series := []string{
			`cascade_gw_hits_total{node="0"}`,
			`cascade_gw_misses_total{node="0"}`,
			`cascade_gw_upstream_health{node="0",upstream="`,
			`cascade_gw_cache_used_bytes{node="0"}`,
			`cascade_gw_dcache_descriptors{node="0"}`,
			`cascade_gw_request_seconds{node="0",quantile="0.99"}`,
			`cascade_gw_request_seconds_bucket{node="0",le="+Inf"}`,
			`cascade_gw_request_seconds_count{node="0"}`,
			`cascade_ledger_predicted_gain{node="0"}`,
			`cascade_ledger_realized_savings{node="0"}`,
			`cascade_ledger_placements_total{node="0"}`,
			`cascade_ledger_place_failures_total{node="0"}`,
			`cascade_ledger_hits_total{node="0"}`,
			`cascade_coherency_stale_hits_total{node="0"}`,
			`cascade_coherency_invalidations_total{node="0"}`,
			`cascade_coherency_revalidations_total{node="0"}`,
			`cascade_coherency_cas_conflicts_total{node="0"}`,
		}
		// Every monitored invariant exports a check and a violation counter.
		for _, iv := range audit.Invariants() {
			series = append(series,
				fmt.Sprintf(`cascade_audit_checks_total{node="0",invariant="%s"}`, iv),
				fmt.Sprintf(`cascade_audit_violations_total{node="0",invariant="%s"}`, iv))
		}
		for _, s := range series {
			if !strings.Contains(body, s) {
				return fmt.Errorf("%s: missing series %s\n%s", url, s, body)
			}
		}
		// A clean replay must report zero violations on every invariant.
		if err := assertZeroViolations(body); err != nil {
			return fmt.Errorf("%s: %w", url, err)
		}
		fmt.Printf("observesmoke: %s serves all key series\n", url)
	}

	// The cost ledger must show real accounting, not just series presence:
	// the placement decided once the gateway's descriptor exists books a
	// positive predicted gain at the placing node, and the later repeats
	// realize savings against it.
	gwBody, err := fetch("http://" + gwAddr + "/cascade/metrics")
	if err != nil {
		return err
	}
	for series, floor := range map[string]float64{
		`cascade_ledger_placements_total{node="0"}`: 1,
		`cascade_ledger_hits_total{node="0"}`:       1,
	} {
		v, err := seriesValue(gwBody, series)
		if err != nil {
			return err
		}
		if v < floor {
			return fmt.Errorf("%s = %g, want >= %g", series, v, floor)
		}
	}
	for _, series := range []string{
		`cascade_ledger_predicted_gain{node="0"}`,
		`cascade_ledger_realized_savings{node="0"}`,
	} {
		v, err := seriesValue(gwBody, series)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("%s = %g, want > 0", series, v)
		}
	}
	fmt.Println("observesmoke: cost ledger books predictions and realized savings")

	// The write just driven must be visible in the coherency series and in
	// the malformed-header counters (present, at zero, on a clean run).
	if v, err := seriesValue(gwBody, `cascade_coherency_invalidations_total{node="0"}`); err != nil {
		return err
	} else if v < 1 {
		return fmt.Errorf(`cascade_coherency_invalidations_total{node="0"} = %g, want >= 1 after the admin write`, v)
	}
	for _, kind := range []string{"decision", "gen", "path"} {
		found := false
		for _, line := range strings.Split(gwBody, "\n") {
			if strings.HasPrefix(line, "cascade_gw_bad_header_total") && strings.Contains(line, `header="`+kind+`"`) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf(`cascade_gw_bad_header_total{header=%q} missing from gateway scrape`, kind)
		}
	}
	fmt.Println("observesmoke: coherency series count the propagated invalidation")

	// The origin decides every whole-chain miss, so it audits its own
	// decisions: its main listener serves cascade_audit_* under
	// node="origin", with Theorem 2's local-benefit invariant actually
	// exercised by the placements just decided, and zero violations.
	originBody, err := fetch("http://" + originAddr + "/cascade/metrics")
	if err != nil {
		return err
	}
	for _, iv := range audit.Invariants() {
		s := fmt.Sprintf(`cascade_audit_checks_total{node="origin",invariant="%s"}`, iv)
		if !strings.Contains(originBody, s) {
			return fmt.Errorf("origin metrics: missing series %s\n%s", s, originBody)
		}
	}
	if err := assertZeroViolations(originBody); err != nil {
		return fmt.Errorf("origin metrics: %w", err)
	}
	if v, err := seriesValue(originBody, `cascade_audit_checks_total{node="origin",invariant="local_benefit"}`); err != nil {
		return err
	} else if v < 1 {
		return fmt.Errorf("origin audited no local-benefit checks despite deciding placements")
	}
	// Its decisions are per-request facts, decide spans in its own ring,
	// which holds nothing else: no audit_violation record either.
	var originSpans span.Snapshot
	if err := fetchJSON("http://"+originAddr+"/cascade/debug/spans", &originSpans); err != nil {
		return err
	}
	originDecides := 0
	for _, s := range originSpans.Spans {
		if s.Phase == span.PhaseDecide {
			originDecides++
		}
	}
	if originSpans.Capacity != 128 || originDecides == 0 || originDecides != len(originSpans.Spans) {
		return fmt.Errorf("origin span ring: capacity %d, %d decide spans of %d records, want decide spans only after decided placements: %+v",
			originSpans.Capacity, originDecides, len(originSpans.Spans), originSpans.Spans)
	}
	fmt.Printf("observesmoke: origin audits its decisions (%d decide spans, zero violations)\n", originDecides)

	// The untraced gateway's ring, at its default depth, must keep the
	// invalidate record of the write just driven.
	var snap span.Snapshot
	if err := fetchJSON("http://"+plainAddr+"/cascade/debug/spans", &snap); err != nil {
		return err
	}
	sawInvalidate := false
	for _, s := range snap.Spans {
		sawInvalidate = sawInvalidate || s.ID == 0 && s.Phase == span.PhaseInvalidate && s.Obj == 7
	}
	if snap.Capacity != 256 || !sawInvalidate {
		return fmt.Errorf("untraced gateway's ring (capacity %d) holds no invalidate record after the admin write: %+v", snap.Capacity, snap.Spans)
	}
	fmt.Printf("observesmoke: an untraced gateway's ring keeps %d event records (capacity %d, invalidation recorded)\n", len(snap.Spans), snap.Capacity)

	// The span-ring debug endpoint must dump protocol-phase spans for the
	// traffic just driven: one shared trace ID per request, a request root,
	// and every phase span parented inside its trace.
	var spanSnap span.Snapshot
	if err := fetchJSON("http://"+gwAddr+"/cascade/debug/spans", &spanSnap); err != nil {
		return err
	}
	if spanSnap.Capacity != 128 || len(spanSnap.Spans) == 0 {
		return fmt.Errorf("/cascade/debug/spans dump is empty (capacity %d, %d spans)", spanSnap.Capacity, len(spanSnap.Spans))
	}
	spanPhases := map[string]bool{}
	ids := map[span.TraceID]map[span.SpanID]bool{}
	for _, s := range spanSnap.Spans {
		if s.ID == 0 { // an event record (the invalidate), not a tree's span
			continue
		}
		if s.Trace.IsZero() {
			return fmt.Errorf("span with zero trace ID: %+v", s)
		}
		spanPhases[s.Phase.String()] = true
		if ids[s.Trace] == nil {
			ids[s.Trace] = map[span.SpanID]bool{}
		}
		ids[s.Trace][s.ID] = true
	}
	for _, want := range []string{"request", "lookup"} {
		if !spanPhases[want] {
			return fmt.Errorf("span dump lacks %q spans (got %v)", want, spanPhases)
		}
	}
	for _, s := range spanSnap.Spans {
		if s.Parent != 0 && !ids[s.Trace][s.Parent] {
			return fmt.Errorf("span %s parent %s not in its own trace %s", s.ID, s.Parent, s.Trace)
		}
	}
	fmt.Printf("observesmoke: span ring retains %d spans across %d traces (%d phases, parents intact)\n",
		len(spanSnap.Spans), len(ids), len(spanPhases))

	// One request's life from one trace: fetch the warm object through the
	// edge twice. The first pass leaves a descriptor at the edge; on the
	// refetch the edge piggybacks a real (f, l) record, the gateway — which
	// holds the copy — runs the DP over it and chooses the edge, and the
	// edge places. All three steps must be readable, with their inputs and
	// outputs, from the two hops' span dumps under one trace ID.
	for i := 0; i < 2; i++ {
		resp, err := http.Get("http://" + edgeAddr + "/objects/7")
		if err != nil {
			return fmt.Errorf("GET objects/7 via edge: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	var edgeSnap, gwSnap span.Snapshot
	if err := fetchJSON("http://"+edgeAddr+"/cascade/debug/spans", &edgeSnap); err != nil {
		return err
	}
	if err := fetchJSON("http://"+gwAddr+"/cascade/debug/spans", &gwSnap); err != nil {
		return err
	}
	decided := map[span.TraceID]span.Span{}
	for _, s := range gwSnap.Spans {
		if s.Phase == span.PhaseDecide && s.N >= 1 {
			decided[s.Trace] = s
		}
	}
	var up, down span.Span
	for _, s := range edgeSnap.Spans {
		if _, ok := decided[s.Trace]; !ok {
			continue
		}
		switch {
		case s.Phase == span.PhaseUp && s.A > 0:
			up = s
		case s.Phase == span.PhaseDown && s.N == span.DownPlaced:
			down = s
		}
	}
	if up.ID == 0 || down.ID == 0 || up.Trace != down.Trace {
		return fmt.Errorf("no trace joins an edge up span with f > 0, a gateway decide span with a chosen count and an edge placement\nedge: %+v\ngateway: %+v", edgeSnap.Spans, gwSnap.Spans)
	}
	dec := decided[up.Trace]
	fmt.Printf("observesmoke: trace %s reads up(f=%.3g l=%.3g) → decide(Δcost=%.3g chosen=%d) → down(penalty=%.3g placed) across two hops\n",
		up.Trace, up.A, up.B, dec.A, dec.N, down.A)

	// An origin-served request, whole: a fresh object fetched twice through
	// the edge misses every cache both times, and the second time both hops
	// piggyback real records, so the origin's DP chooses a placement. The
	// origin collects its span before it answers, so the newest span in its
	// ring is that decide: it must carry the decision the client read off
	// the response headers, in the trace the edge minted, under the last
	// hop's up span — with both passes present at both hops.
	var hdr http.Header
	for i := 0; i < 2; i++ {
		resp, err := http.Get("http://" + edgeAddr + "/objects/11")
		if err != nil {
			return fmt.Errorf("GET objects/11 via edge: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		hdr = resp.Header
	}
	// The decision's second field lists the chosen nodes as node=term.
	chosen, predicted := 0, 0.0
	if fields := strings.Split(hdr.Get("X-Cascade-Decision"), ";"); len(fields) > 1 && fields[1] != "" {
		for _, entry := range strings.Split(fields[1], ",") {
			_, v, _ := strings.Cut(entry, "=")
			f, _ := strconv.ParseFloat(v, 64) // a malformed term fails the comparison below
			chosen, predicted = chosen+1, predicted+f
		}
	}
	if err := fetchJSON("http://"+originAddr+"/cascade/debug/spans", &originSpans); err != nil {
		return err
	}
	od := originSpans.Spans[len(originSpans.Spans)-1]
	if hdr.Get("X-Cascade-Hit") != "origin" || chosen == 0 || od.Phase != span.PhaseDecide ||
		od.N != chosen || math.Abs(od.A-predicted) > 1e-9*predicted {
		return fmt.Errorf("origin's newest span %+v is not the placement decision the client saw: %v", od, hdr)
	}
	edgeTr, err := traceSpans(edgeAddr, od.Trace, span.PhaseRequest, span.PhaseLookup, span.PhaseUp, span.PhaseDown)
	if err != nil {
		return err
	}
	gwTr, err := traceSpans(gwAddr, od.Trace, span.PhaseLookup, span.PhaseUp, span.PhaseDown)
	if err != nil {
		return err
	}
	if edgeTr[span.PhaseRequest].Parent != 0 || gwTr[span.PhaseLookup].Parent != edgeTr[span.PhaseUp].ID || od.Parent != gwTr[span.PhaseUp].ID {
		return fmt.Errorf("trace %s does not nest edge up → gateway up → origin decide:\nedge %v\ngateway %v\norigin %+v",
			od.Trace, edgeTr, gwTr, od)
	}
	fmt.Printf("observesmoke: origin-served trace %s holds lookup/up/down at both hops and the origin's decide(Δcost=%.3g chosen=%d) matching the response headers\n",
		od.Trace, od.A, od.N)
	return nil
}

// assertZeroViolations scans a Prometheus scrape and fails if any
// cascade_audit_violations_total sample is non-zero — clean traffic must
// audit clean.
func assertZeroViolations(body string) error {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "cascade_audit_violations_total{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || fields[1] != "0" {
			return fmt.Errorf("audit violation on clean run: %s", line)
		}
	}
	return nil
}

// seriesValue returns the sample value of the exactly-named series in a
// Prometheus scrape.
func seriesValue(body, series string) (float64, error) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		return strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series)), 64)
	}
	return 0, fmt.Errorf("series %s not found in scrape", series)
}

// fetch GETs a URL and returns the body as a string.
func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// traceSpans returns a hop's spans of one trace by phase, once every wanted
// phase is there: a hop deposits its spans when its handler returns, which
// can trail the client reading the body, so the dump is polled briefly.
func traceSpans(addr string, trace span.TraceID, want ...span.Phase) (map[span.Phase]span.Span, error) {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var snap span.Snapshot
		if err := fetchJSON("http://"+addr+"/cascade/debug/spans", &snap); err != nil {
			return nil, err
		}
		got := map[span.Phase]span.Span{}
		for _, s := range snap.Spans {
			if s.Trace == trace {
				got[s.Phase] = s
			}
		}
		missing := ""
		for _, ph := range want {
			if got[ph].ID == 0 {
				missing = ph.String()
			}
		}
		if missing == "" {
			return got, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("trace %s: hop %s holds no %s span", trace, addr, missing)
		}
	}
}

// fetchJSON GETs a URL and decodes its JSON body into v.
func fetchJSON(url string, v any) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		return fmt.Errorf("%s is not a JSON snapshot: %w\n%s", url, err, body)
	}
	return nil
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// child process to claim.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func start(bin string, logs io.Writer, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logs, logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s %v: %w", bin, args, err)
	}
	return cmd, nil
}

func stop(cmd *exec.Cmd) {
	if cmd.Process != nil {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	}
}

func waitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("nothing listening on %s after %s", addr, timeout)
}
