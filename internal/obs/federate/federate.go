// Package federate is the cascade-wide half of observability: every
// existing surface (/cascade/metrics, /cascade/stats) is per-process, so
// answering "what is the chain's hit ratio" or "where did the p99 go"
// requires scraping every hop and merging. The federator discovers the
// chain by walking each node's advertised upstream (the control-plane
// membership view exposes it), scrapes each hop, and derives the
// cascade-level SLIs the per-node series cannot express: end-to-end hit
// ratio, per-hop contribution, realized-vs-predicted ledger drift,
// stale-serve rate, and merged latency quantiles (bucket counts merge
// exactly; quantiles never do, which is why the registry exports
// _bucket series).
//
// The package observes from outside the data plane: it imports no
// transport and talks to nodes over plain HTTP, so it can point at any
// deployment — in-process test chains, cascadegw processes, or a real
// fleet behind a load balancer.
package federate

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"cascade/internal/metrics"
)

// Hop is one scraped cascade node, client-nearest first in a View.
type Hop struct {
	URL            string  `json:"url"`
	Node           int     `json:"node"`
	Upstream       string  `json:"upstream"`
	Membership     string  `json:"membership"`
	Health         string  `json:"health"`
	UpstreamHealth string  `json:"upstream_health"`
	Hits           float64 `json:"hits"`
	Misses         float64 `json:"misses"`

	Samples []Sample `json:"-"` // full /cascade/metrics scrape
}

// Requests is the data-path traffic this hop saw (hits + misses).
func (h *Hop) Requests() float64 { return h.Hits + h.Misses }

// View is one synchronized scrape of the whole chain.
type View struct {
	Hops []Hop
}

// Federator discovers and scrapes a cascade. The zero value is usable.
type Federator struct {
	Client  *http.Client // default: 5s-timeout client
	MaxHops int          // walk bound; default 64
}

func (f *Federator) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (f *Federator) maxHops() int {
	if f.MaxHops > 0 {
		return f.MaxHops
	}
	return 64
}

// statsJSON mirrors the discovery-relevant fields of /cascade/stats.
type statsJSON struct {
	Node           *int    `json:"node"`
	Upstream       string  `json:"upstream"`
	Membership     string  `json:"membership"`
	Health         string  `json:"health"`
	UpstreamHealth string  `json:"upstream_health"`
	Hits           float64 `json:"hits"`
	Misses         float64 `json:"misses"`
}

// maxStatsBytes caps the /cascade/stats reply stats reads, a few kilobytes
// from a real node (docs/PROTOCOL.md): a longer one fails to decode instead
// of growing the reader's buffer. The decoder's doubling buffer allocates
// about four times the cap in all.
const maxStatsBytes = 256 << 10

// stats fetches one node's /cascade/stats; ok is false when the URL does
// not answer like a cascade node (the origin, or something else entirely),
// which is how a chain walk knows it reached the top.
func (f *Federator) stats(url string) (statsJSON, bool) {
	resp, err := f.client().Get(url + "/cascade/stats")
	if err != nil {
		return statsJSON{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statsJSON{}, false
	}
	var st statsJSON
	if json.NewDecoder(io.LimitReader(resp.Body, maxStatsBytes)).Decode(&st) != nil || st.Node == nil {
		return statsJSON{}, false
	}
	return st, true
}

// Discover walks the chain from the edge node's base URL, following each
// hop's advertised upstream until something that is not a cascade node
// answers (the origin). The edge itself must answer, otherwise Discover
// errors. Cycles and runaway chains stop at MaxHops.
func (f *Federator) Discover(edge string) ([]string, error) {
	var urls []string
	seen := make(map[string]bool)
	for url := edge; url != "" && !seen[url] && len(urls) < f.maxHops(); {
		st, ok := f.stats(url)
		if !ok {
			if len(urls) == 0 {
				return nil, fmt.Errorf("federate: %s does not answer /cascade/stats", edge)
			}
			break // reached the origin
		}
		seen[url] = true
		urls = append(urls, url)
		url = st.Upstream
	}
	return urls, nil
}

// Scrape discovers the chain from the edge URL and captures one View:
// every hop's stats plus its full Prometheus exposition.
func (f *Federator) Scrape(edge string) (*View, error) {
	urls, err := f.Discover(edge)
	if err != nil {
		return nil, err
	}
	v := &View{}
	for _, url := range urls {
		st, ok := f.stats(url)
		if !ok {
			return nil, fmt.Errorf("federate: %s stopped answering mid-scrape", url)
		}
		hop := Hop{
			URL:            url,
			Node:           *st.Node,
			Upstream:       st.Upstream,
			Membership:     st.Membership,
			Health:         st.Health,
			UpstreamHealth: st.UpstreamHealth,
			Hits:           st.Hits,
			Misses:         st.Misses,
		}
		resp, err := f.client().Get(url + "/cascade/metrics")
		if err != nil {
			return nil, fmt.Errorf("federate: scrape %s: %w", url, err)
		}
		hop.Samples, err = ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("federate: scrape %s: %w", url, err)
		}
		v.Hops = append(v.Hops, hop)
	}
	return v, nil
}

// Sum totals a counter/gauge series across every hop and label set —
// federation's sum() over the node dimension.
func (v *View) Sum(name string) float64 {
	total := 0.0
	for i := range v.Hops {
		for _, s := range v.Hops[i].Samples {
			if s.Name == name {
				total += s.Value
			}
		}
	}
	return total
}

// Histogram rebuilds the merged distribution of a summary series from its
// _bucket exposition across the given hops (nil hops = all). Counts merge
// exactly because every node shares one bucket ladder; the result answers
// quantile queries no single node could.
func (v *View) Histogram(name string, hops []int) metrics.Histogram {
	want := make(map[int]bool, len(hops))
	for _, h := range hops {
		want[h] = true
	}
	var out metrics.Histogram
	bucket := name + "_bucket"
	for i := range v.Hops {
		if len(hops) > 0 && !want[i] {
			continue
		}
		// Group this hop's bucket samples by label set minus "le", then
		// de-cumulate each group in le order.
		groups := make(map[string][]Sample)
		for _, s := range v.Hops[i].Samples {
			if s.Name != bucket {
				continue
			}
			key := labelKey(s.Labels)
			groups[key] = append(groups[key], s)
		}
		for _, g := range groups {
			sort.Slice(g, func(a, b int) bool { return leOf(g[a]) < leOf(g[b]) })
			prev := 0.0
			for _, s := range g {
				le := leOf(s)
				if n := int64(s.Value - prev); n > 0 {
					if math.IsInf(le, 1) {
						// Remainder above the last emitted bound (zero for
						// our own exposition, whose values clamp into the
						// ladder) lands in the top bucket.
						le = math.MaxFloat64
					}
					out.AddLe(le, n)
				}
				prev = s.Value
			}
		}
	}
	return out
}

// labelKey renders a label set (minus le) deterministically.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "=" + labels[k] + ";"
	}
	return out
}

// leOf parses a bucket sample's upper bound (+Inf included).
func leOf(s Sample) float64 {
	le := s.Labels["le"]
	if le == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return 0
	}
	return v
}

// HopContribution is one hop's share of the cascade's work.
type HopContribution struct {
	Node     int     `json:"node"`
	Hits     float64 `json:"hits"`
	Misses   float64 `json:"misses"`
	Share    float64 `json:"share"`     // fraction of edge requests this hop served
	HitRatio float64 `json:"hit_ratio"` // local hit ratio of traffic reaching this hop
}

// SLIs are the cascade-level indicators the per-node series cannot
// express; every ratio is guarded against zero-traffic scrapes.
type SLIs struct {
	EdgeRequests    float64           `json:"edge_requests"`
	EndToEndHit     float64           `json:"end_to_end_hit_ratio"`
	PerHop          []HopContribution `json:"per_hop"`
	StaleServes     float64           `json:"stale_serves"`
	StaleRate       float64           `json:"stale_rate"`
	CASConflicts    float64           `json:"cas_conflicts"`
	LedgerPredicted float64           `json:"ledger_predicted_gain"`
	LedgerRealized  float64           `json:"ledger_realized_savings"`
	LedgerDrift     float64           `json:"ledger_drift"` // (realized-predicted)/predicted
	LatencyP50      float64           `json:"latency_p50"`  // end-to-end: the edge hop's distribution
	LatencyP95      float64           `json:"latency_p95"`
	LatencyP99      float64           `json:"latency_p99"`
	Degraded        float64           `json:"degraded"`
}

// SLIs derives the cascade-level indicators from one View.
func (v *View) SLIs() SLIs {
	var out SLIs
	if len(v.Hops) == 0 {
		return out
	}
	out.EdgeRequests = v.Hops[0].Requests()
	deepestMisses := v.Hops[len(v.Hops)-1].Misses
	if out.EdgeRequests > 0 {
		out.EndToEndHit = 1 - deepestMisses/out.EdgeRequests
	}
	for i := range v.Hops {
		h := &v.Hops[i]
		c := HopContribution{Node: h.Node, Hits: h.Hits, Misses: h.Misses}
		if out.EdgeRequests > 0 {
			c.Share = h.Hits / out.EdgeRequests
		}
		if r := h.Requests(); r > 0 {
			c.HitRatio = h.Hits / r
		}
		out.PerHop = append(out.PerHop, c)
	}
	out.StaleServes = v.Sum("cascade_coherency_stale_hits_total")
	if out.EdgeRequests > 0 {
		out.StaleRate = out.StaleServes / out.EdgeRequests
	}
	out.CASConflicts = v.Sum("cascade_coherency_cas_conflicts_total")
	out.LedgerPredicted = v.Sum("cascade_ledger_predicted_gain")
	out.LedgerRealized = v.Sum("cascade_ledger_realized_savings")
	if out.LedgerPredicted != 0 {
		out.LedgerDrift = (out.LedgerRealized - out.LedgerPredicted) / out.LedgerPredicted
	}
	out.Degraded = v.Sum("cascade_gw_degraded_total")

	// End-to-end latency lives at the edge: its request clock spans the
	// whole upstream round trip, so its distribution is the client's.
	lat := v.Histogram("cascade_gw_request_seconds", []int{0})
	out.LatencyP50 = lat.Quantile(0.50)
	out.LatencyP95 = lat.Quantile(0.95)
	out.LatencyP99 = lat.Quantile(0.99)
	return out
}
