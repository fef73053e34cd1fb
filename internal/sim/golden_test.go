package sim

import (
	"fmt"
	"testing"

	"cascade/internal/audit"
	"cascade/internal/coherency"
	"cascade/internal/dcache"
	"cascade/internal/metrics"
	"cascade/internal/model"
	"cascade/internal/scheme"
	"cascade/internal/span"
	"cascade/internal/topology"
)

// goldenSummaries pins the replay simulator's output: every Summary field,
// formatted with %v (the shortest representation that parses back to the
// same float64), so equal strings mean equal bits. A change to the protocol
// engine, the schemes or the replay loop that alters any number here alters
// what the paper's figures are computed from.
var goldenSummaries = map[string]string{
	"coord":         "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.881800746991058 AvgRespRatio:0.1066701305135855 HitRatio:0.4557333333333333 ByteHitRatio:0.45060763968201867 AvgByteHops:69310.34533333333 AvgHops:8.1762 AvgReadLoad:3909.2406 AvgWriteLoad:746.9537333333334 AvgLoad:4656.194333333333 AvgInserts:0.11233333333333333 AvgPiggyback:32.37466666666667 StaleHitRatio:0 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.1678804018122561 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/ttl":     "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.9210424047222082 AvgRespRatio:0.11151793650770617 HitRatio:0.4387333333333333 ByteHitRatio:0.4303982836667124 AvgByteHops:72287.3824 AvgHops:8.523933333333334 AvgReadLoad:3733.9146 AvgWriteLoad:1345.7592 AvgLoad:5079.6738 AvgInserts:0.1842 AvgPiggyback:39.891466666666666 StaleHitRatio:0.07153333333333334 RefetchRatio:0.060533333333333335 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.21134890398366457 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/psi":     "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.9059038016001868 AvgRespRatio:0.10827130767067619 HitRatio:0.461 ByteHitRatio:0.44539396102740086 AvgByteHops:70900.76606666666 AvgHops:8.273 AvgReadLoad:3864.0094 AvgWriteLoad:1074.9766666666667 AvgLoad:4938.986066666666 AvgInserts:0.15333333333333332 AvgPiggyback:447.25626666666665 StaleHitRatio:0.00046666666666666666 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.18836490894898006 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/cas":     "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.8987053992637344 AvgRespRatio:0.10821854834868802 HitRatio:0.46073333333333333 ByteHitRatio:0.4457207822675786 AvgByteHops:70467.23153333334 AvgHops:8.273933333333334 AvgReadLoad:3866.8447333333334 AvgWriteLoad:1074.2197333333334 AvgLoad:4941.064466666667 AvgInserts:0.15053333333333332 AvgPiggyback:447.48693333333335 StaleHitRatio:0 RefetchRatio:0.0003333333333333333 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.18836490894898006 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/k8":      "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.8769698421525969 AvgRespRatio:0.10643185927358484 HitRatio:0.44753333333333334 ByteHitRatio:0.44619669792821076 AvgByteHops:69184.4522 AvgHops:8.191666666666666 AvgReadLoad:3870.9735333333333 AvgWriteLoad:565.6962 AvgLoad:4436.669733333333 AvgInserts:0.0888 AvgPiggyback:36.1232 StaleHitRatio:0 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.1678804018122561 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/stacks":  "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.8467064820585303 AvgRespRatio:0.09966962022909572 HitRatio:0.4633333333333333 ByteHitRatio:0.4482167882361505 AvgByteHops:67272.02593333334 AvgHops:7.749933333333333 AvgReadLoad:3888.4988 AvgWriteLoad:958.8058 AvgLoad:4847.3046 AvgInserts:0.15073333333333333 AvgPiggyback:42.312266666666666 StaleHitRatio:0 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.14962356560944345 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/prune":   "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.8909316081208809 AvgRespRatio:0.10692754041542439 HitRatio:0.45526666666666665 ByteHitRatio:0.45101814498769216 AvgByteHops:69843.88953333333 AvgHops:8.194866666666666 AvgReadLoad:3912.801933333333 AvgWriteLoad:799.4008 AvgLoad:4712.2027333333335 AvgInserts:0.11533333333333333 AvgPiggyback:32.536 StaleHitRatio:0 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.18836490894898006 P95Latency:4.216965034285822 P99Latency:10.592537251772885}",
	"coord/observe": "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.8555516584131966 AvgRespRatio:0.10252331188147161 HitRatio:0.3015333333333333 ByteHitRatio:0.31186439253079834 AvgByteHops:26533.172333333332 AvgHops:3.0995333333333335 AvgReadLoad:2705.5754 AvgWriteLoad:847.1486666666667 AvgLoad:3552.7240666666667 AvgInserts:0.11953333333333334 AvgPiggyback:551.1298666666667 StaleHitRatio:0 RefetchRatio:0.0002666666666666667 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.29853826189179616 P95Latency:4.216965034285822 P99Latency:7.498942093324558} checks:99760 violations:0 ledger:{Node:-1 PredictedGain:332.1150547044416 RealizedSavings:6808.292407676471 Predictions:3832 Placements:3832 PlaceFailures:0 Hits:8716} spans:481636",
	"coord/drain":   "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.8449606880898184 AvgRespRatio:0.1012377946005225 HitRatio:0.31166666666666665 ByteHitRatio:0.3211701912502108 AvgByteHops:25988.085733333333 AvgHops:3.065 AvgReadLoad:2786.3077333333335 AvgWriteLoad:618.6628666666667 AvgLoad:3404.9706 AvgInserts:0.09286666666666667 AvgPiggyback:13.3448 StaleHitRatio:0 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.26607250597988125 P95Latency:4.216965034285822 P99Latency:7.498942093324558} drained:7 absorbed:4 admitted:true",
	"partial50":     "{Requests:15000 AvgSize:8675.486733333333 AvgLatency:0.9869107142657727 AvgRespRatio:0.1179138283616868 HitRatio:0.4428 ByteHitRatio:0.4399490868911939 AvgByteHops:77024.39373333333 AvgHops:9.006866666666667 AvgReadLoad:3816.772466666667 AvgWriteLoad:36597.44793333334 AvgLoad:40414.2204 AvgInserts:4.424666666666667 AvgPiggyback:0 StaleHitRatio:0 RefetchRatio:0 DegradedRatio:0 AvgSkippedHops:0 P50Latency:0.26607250597988125 P95Latency:4.731512589614807 P99Latency:10.592537251772885}",
}

// goldenRun replays the sim package's standard workload through one scheme
// and returns its summary rendered exactly. tree selects the hierarchical
// architecture (en-route otherwise); drain, which needs the hierarchy,
// replays a drain → absorb → admit cycle of an interior node at a third and
// at two thirds of the trace.
func goldenRun(t *testing.T, sch scheme.Scheme, coh *coherency.Config, tree, drain bool) string {
	t.Helper()
	g := workload()
	var net topology.Network = enroute()
	if tree {
		net = topology.GenerateTree(topology.TreeConfig{})
	}
	simr, err := New(Config{
		Scheme:            sch,
		Network:           net,
		Catalog:           g.Catalog(),
		RelativeCacheSize: 0.01,
		Seed:              3,
		Coherency:         coh,
	})
	if err != nil {
		t.Fatal(err)
	}
	var col metrics.Collector
	extra := ""
	n := g.Len()
	for i := 0; ; i++ {
		req, ok := g.Next()
		if !ok {
			break
		}
		if drain {
			coord := sch.(*scheme.Coordinated)
			h := net.(*topology.Hierarchy)
			// The root's first child: an interior node every third of the
			// leaves routes through.
			const victim = model.NodeID(1)
			switch i {
			case n / 3:
				snaps := coord.Drain(victim, req.Time)
				absorbed := coord.Absorb(h.Parent(victim), snaps, req.Time)
				extra += fmt.Sprintf(" drained:%d absorbed:%d", len(snaps), absorbed)
			case 2 * n / 3:
				extra += fmt.Sprintf(" admitted:%v", coord.Admit(victim))
			}
		}
		s := simr.Process(req)
		if i >= n/2 {
			col.Add(s)
		}
	}
	return fmt.Sprintf("%+v", col.Summary()) + extra
}

// TestSummaryGolden replays the coordinated scheme under every coherency
// mode, a larger sliding window, the LRU-stacks d-cache, the Theorem 2
// prune, the observability stack and a mid-trace drain cycle, plus the
// partial deployment, and requires every Summary field to match the pinned
// value bit for bit.
func TestSummaryGolden(t *testing.T) {
	cohCfg := func(m coherency.Mode) *coherency.Config {
		return &coherency.Config{Mode: m, ObjectUpdateInterval: 3600, Lifetime: 900, Seed: 5}
	}
	cases := map[string]func(t *testing.T) string{
		"coord": func(t *testing.T) string {
			return goldenRun(t, scheme.NewCoordinated(), nil, false, false)
		},
		"coord/ttl": func(t *testing.T) string {
			return goldenRun(t, scheme.NewCoordinated(), cohCfg(coherency.ModeTTL), false, false)
		},
		"coord/psi": func(t *testing.T) string {
			return goldenRun(t, scheme.NewCoordinated(), cohCfg(coherency.ModePSI), false, false)
		},
		"coord/cas": func(t *testing.T) string {
			return goldenRun(t, scheme.NewCoordinated(), cohCfg(coherency.ModeCAS), false, false)
		},
		"coord/k8": func(t *testing.T) string {
			s := scheme.NewCoordinated()
			s.SetWindowK(8)
			return goldenRun(t, s, nil, false, false)
		},
		"coord/stacks": func(t *testing.T) string {
			s := scheme.NewCoordinated()
			s.SetDCacheFactory(dcache.NewLRUStacksFactory)
			return goldenRun(t, s, nil, false, false)
		},
		"coord/prune": func(t *testing.T) string {
			s := scheme.NewCoordinated()
			s.SetTheorem2Prune(true)
			return goldenRun(t, s, nil, false, false)
		},
		"coord/observe": func(t *testing.T) string {
			s := scheme.NewCoordinated()
			a := audit.New(nil)
			l := audit.NewLedger()
			s.SetAuditor(a)
			s.SetLedger(l)
			s.SetSpans(span.NewTracer(span.Policy{Rate: 1}), 64)
			out := goldenRun(t, s, cohCfg(coherency.ModeCAS), true, false)
			checks := int64(0)
			for _, iv := range audit.Invariants() {
				checks += a.Checks(iv)
			}
			spans := 0
			for _, n := range s.SpanNodes() {
				r := s.SpanRing(n)
				spans += r.Len() + int(r.Dropped())
			}
			return fmt.Sprintf("%s checks:%d violations:%d ledger:%+v spans:%d",
				out, checks, a.TotalViolations(), l.Totals(), spans)
		},
		"coord/drain": func(t *testing.T) string {
			return goldenRun(t, scheme.NewCoordinated(), nil, true, true)
		},
		"partial50": func(t *testing.T) string {
			return goldenRun(t, scheme.NewPartial(0.5, 1), nil, false, false)
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			if got, want := run(t), goldenSummaries[name]; got != want {
				t.Errorf("summary drifted:\n got %q\nwant %q", got, want)
			}
		})
	}
}
