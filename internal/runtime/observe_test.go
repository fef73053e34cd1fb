package runtime

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/audit"
	"cascade/internal/fault"
	"cascade/internal/model"
	"cascade/internal/span"
	"cascade/internal/topology"
)

// TestClusterAuditedReplay drives a deterministic workload through an
// audited cluster and checks the observability stack end to end: every
// invariant is exercised with zero violations, the ledger accounts the
// placements, the span rings capture the requests and the crash events, and the Prometheus export carries the audit and ledger
// series.
func TestClusterAuditedReplay(t *testing.T) {
	clk := &logicalClock{}
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    10000,
		DCacheEntries: 100,
		Clock:         clk.Now,
		EnableAudit:   true,
		SpanCapacity:  128,
		SpanSample:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaf := h.ClientAttachPoints()[0]
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		clk.Set(float64(i))
		if _, err := c.Get(ctx, leaf, model.NoNode, model.ObjectID(i%5), 100); err != nil {
			t.Fatal(err)
		}
	}

	a := c.Auditor()
	if a == nil {
		t.Fatal("EnableAudit did not install an auditor")
	}
	if got := a.TotalViolations(); got != 0 {
		t.Fatalf("clean replay reported %d violations", got)
	}
	for _, iv := range []audit.Invariant{audit.LocalBenefit, audit.MissPenalty} {
		if a.Checks(iv) == 0 {
			t.Fatalf("invariant %s never checked", iv)
		}
	}

	totals := c.Ledger().Totals()
	if totals.Predictions == 0 || totals.Placements == 0 {
		t.Fatalf("ledger recorded no placements: %+v", totals)
	}
	if totals.Hits == 0 || totals.RealizedSavings <= 0 {
		t.Fatalf("ledger recorded no realized savings: %+v", totals)
	}

	// The leaf's span ring is the per-request record of the workload; it
	// holds no event record yet — a clean run has no event.
	spans := c.DumpSpans(leaf)
	if spans.Capacity != 128 || len(spans.Spans) == 0 {
		t.Fatalf("span dump empty: capacity=%d spans=%d", spans.Capacity, len(spans.Spans))
	}
	if evs := events(spans.Spans); len(evs) != 0 {
		t.Fatalf("span ring holds %d event records before any fault: %+v", len(evs), evs)
	}

	// Crash/recover transitions land in the slot-owned ring, in order.
	c.Fail(leaf)
	c.Recover(leaf)
	evs := events(c.DumpSpans(leaf).Spans)
	if len(evs) != 2 || evs[0].Phase != span.PhaseCrash || evs[1].Phase != span.PhaseRecover {
		t.Fatalf("event records after Fail/Recover = %+v, want crash then recover", evs)
	}

	var b strings.Builder
	if err := c.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cascade_audit_checks_total{invariant="local_benefit"}`,
		`cascade_audit_violations_total{invariant="miss_penalty"} 0`,
		`cascade_ledger_predicted_gain{node="0"}`,
		`cascade_ledger_placements_total{node="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
}

// TestClusterAuditConcurrent runs audited Gets, fault injection, node
// crash/recovery cycles, Prometheus scrapes and flight dumps all at once.
// Under -race this proves the audit/ledger/flight surface needs no caller
// locking; the final assertion proves message loss and crashes degrade
// requests without ever corrupting a protocol invariant.
func TestClusterAuditConcurrent(t *testing.T) {
	h := topology.GenerateTree(topology.TreeConfig{Depth: 3, Fanout: 2, BaseDelay: 1, Growth: 2})
	c, err := NewCluster(Config{
		Network:       h,
		CacheBytes:    4096,
		DCacheEntries: 64,
		Fault:         fault.New(11).WithDrop(0.05),
		EnableAudit:   true,
		SpanCapacity:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	leaves := h.ClientAttachPoints()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				leaf := leaves[(w+i)%len(leaves)]
				_, _ = c.Get(ctx, leaf, model.NoNode, model.ObjectID(i%17), 64)
			}
		}(w)
	}

	route := h.Route(leaves[0], model.NoNode)
	mid := route.Caches[1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Fail(mid)
			time.Sleep(time.Millisecond)
			c.Recover(mid)
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: the Prometheus scrape (audit and ledger series render from
	// live counters), ledger snapshots, and span-ring dumps of the node
	// being crash-cycled.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := c.Metrics().WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_ = c.Ledger().Snapshot()
			_ = c.DumpSpans(mid)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if got := c.Auditor().TotalViolations(); got != 0 {
		t.Fatalf("faulted run reported %d invariant violations", got)
	}
	if c.Auditor().Checks(audit.MissPenalty) == 0 {
		t.Fatal("no miss-penalty checks ran")
	}
	if len(events(c.DumpSpans(mid).Spans)) == 0 {
		t.Fatal("crash-cycled node's span ring holds no event record")
	}
}

// events returns the event records among a ring's spans: the zero-length
// records with no span ID, oldest first.
func events(spans []span.Span) []span.Span {
	var out []span.Span
	for _, s := range spans {
		if s.ID == 0 {
			out = append(out, s)
		}
	}
	return out
}
