package httpgw

import (
	"net/http"
	"strconv"
	"sync/atomic"

	"cascade/internal/controlplane"
	"cascade/internal/engine"
	"cascade/internal/metrics"
	"cascade/internal/store"
)

// MetricsRegistry returns the node's Prometheus registry, built by NewNode
// (so the audit and ledger series register eagerly). Every series carries a
// node label; the retry and upstream-health series additionally carry the
// upstream, so a scrape of a whole chain distinguishes which link is
// failing. Counters
// are read at scrape time from the node's own atomics and the engine's and
// body store's accounting — the request path pays nothing for the export.
func (n *Node) MetricsRegistry() *metrics.Registry {
	if n.reg != nil {
		return n.reg
	}
	r := metrics.NewRegistry()
	nl := metrics.L("node", nodeName(n.ID))
	ul := metrics.L("upstream", n.Upstream)

	load := func(c *atomic.Int64) func() float64 { return func() float64 { return float64(c.Load()) } }
	r.CounterFunc("cascade_gw_hits_total", "Requests served from this node's cache.", load(&n.hits), nl)
	r.CounterFunc("cascade_gw_misses_total", "Requests forwarded upstream.", load(&n.misses), nl)
	r.CounterFunc("cascade_gw_inserts_total", "Copies cached by placement decisions.", load(&n.inserts), nl)
	r.CounterFunc("cascade_gw_revalidations_total", "Expired copies refreshed by a 304.", load(&n.revalidations), nl)
	r.CounterFunc("cascade_gw_retries_total", "Upstream retry attempts.", load(&n.retries), nl, ul)
	r.CounterFunc("cascade_gw_degraded_total", "Responses served outside the protocol (origin-direct or stale-if-error).", load(&n.degraded), nl)

	r.GaugeFunc("cascade_node_health", "This node's advertised health (0=healthy, 1=suspect, 2=down).", func() float64 { return float64(n.cp.HealthOf(selfSlot)) }, nl)
	r.GaugeFunc("cascade_gw_membership", "This node's membership state (0=active, 1=draining, 2=removed).", func() float64 { return float64(n.Member()) }, nl)
	r.GaugeFunc("cascade_gw_upstream_health", "The upstream's health as its prober and its exchanges judge it (0=healthy, 1=suspect, 2=down).", func() float64 { return float64(n.UpstreamHealth()) }, nl, ul)
	for _, k := range []controlplane.EventKind{controlplane.EventAdmit, controlplane.EventDrain, controlplane.EventRemove, controlplane.EventHealthChange} {
		r.CounterFunc("cascade_membership_changes_total",
			"Membership and health transitions applied by the control plane.",
			func() float64 { return float64(n.cp.Changes(k)) }, metrics.L("event", k.String()), nl)
	}
	bodyStats := func(f func(s store.Stats) float64) func() float64 {
		return func() float64 { return f(n.bodies.Stats()) }
	}
	r.CounterFunc("cascade_node_spill_bytes_total", "Bytes of NCL-evicted payloads spilled to the disk tier.",
		bodyStats(func(s store.Stats) float64 { return float64(s.SpillBytesTotal) }), nl)
	r.CounterFunc("cascade_gw_spill_hits_total", "Requests served from the disk spill tier without an upstream fetch.",
		load(&n.spillHits), nl)
	r.CounterFunc("cascade_gw_promotions_total", "Spilled objects promoted back to the memory tier.",
		load(&n.promotions), nl)
	r.CounterFunc("cascade_gw_disk_corrupt_total", "Disk-tier reads discarded on CRC or format mismatch.",
		bodyStats(func(s store.Stats) float64 { return float64(s.CorruptReads) }), nl)
	r.GaugeFunc("cascade_gw_spill_used_bytes", "Bytes currently held by the disk spill tier.",
		bodyStats(func(s store.Stats) float64 { return float64(s.DiskBytes) }), nl)
	r.CounterFunc("cascade_gw_bad_header_total", "Malformed protocol headers received, by header kind.",
		func() float64 { return float64(n.badDecision.Load()) }, metrics.L("header", "decision"), nl)
	r.CounterFunc("cascade_gw_bad_header_total", "Malformed protocol headers received, by header kind.",
		func() float64 { return float64(n.badSegment.Load()) }, metrics.L("header", "segment"), nl)
	r.CounterFunc("cascade_gw_bad_header_total", "Malformed protocol headers received, by header kind.",
		func() float64 { return float64(n.badGen.Load()) }, metrics.L("header", "gen"), nl)
	r.CounterFunc("cascade_gw_bad_header_total", "Malformed protocol headers received, by header kind.",
		func() float64 { return float64(n.badPath.Load()) }, metrics.L("header", "path"), nl)
	r.CounterFunc("cascade_gw_relayed_bytes_total", "Body bytes relayed through this node without being stored, by the path they took.",
		func() float64 { return float64(n.relayedKernel.Load()) }, metrics.L("path", "kernel"), nl)
	r.CounterFunc("cascade_gw_relayed_bytes_total", "Body bytes relayed through this node without being stored, by the path they took.",
		func() float64 { return float64(n.relayedCopy.Load()) }, metrics.L("path", "copy"), nl)
	for kind, name := range servedNames {
		c := &n.served[kind]
		r.CounterFunc("cascade_gw_served_total", "Requests served, by the connection they came on: loop (a connection the node's loop took over) or http (net/http).",
			func() float64 { return float64(c.Load()) }, metrics.L("conn", name), nl)
	}
	for o, name := range reassemblyOutcomeNames {
		c := &n.reassembly[o]
		r.CounterFunc("cascade_gw_reassembly_total", "Large-object reassemblies at the client-facing node, by what they did.",
			func() float64 { return float64(c.Load()) }, metrics.L("outcome", name), nl)
	}
	n.reqHist = r.Summary("cascade_gw_request_seconds",
		"Wall-clock latency of data-path requests at this node, all outcomes.", nl)

	r.GaugeFunc("cascade_gw_cache_used_bytes", "Bytes held by the object cache.", func() float64 { return float64(n.st.Used()) }, nl)
	r.GaugeFunc("cascade_gw_cache_capacity_bytes", "Object cache capacity.", func() float64 { return float64(n.st.Capacity()) }, nl)
	r.GaugeFunc("cascade_gw_cache_objects", "Objects held by the cache.", func() float64 { return float64(n.st.StoreLen()) }, nl)
	r.GaugeFunc("cascade_gw_dcache_descriptors", "Descriptors held by the d-cache.", func() float64 { return float64(n.st.DCacheLen()) }, nl)
	r.GaugeFunc("cascade_node_shards", "Shard count of the node's partitioned protocol state.", func() float64 { return float64(n.st.ShardCount()) }, nl)

	n.reg = r
	return r
}

// registerShardSeries registers the per-shard operational series for any
// shard indices that appeared since the last call (series registration is
// permanent, so a SetShards rebuild only adds the new indices; a shrink
// leaves the stale indices reading zero). Counters are atomics on the shard,
// read lock-free at scrape time.
func (n *Node) registerShardSeries() {
	reg, from, to := n.reg, n.shardSeries, n.st.ShardCount()
	n.shardSeries = max(n.shardSeries, to)
	nl := metrics.L("node", nodeName(n.ID))
	for s := from; s < to; s++ {
		s := s
		sl := metrics.L("shard", strconv.Itoa(s))
		read := func(f func(st *engine.Sharded) int64) func() float64 {
			return func() float64 {
				if st := n.st; s < st.ShardCount() {
					return float64(f(st))
				}
				return 0
			}
		}
		reg.CounterFunc("cascade_node_shard_inserts_total", "Object copies this shard inserted.",
			read(func(st *engine.Sharded) int64 { return st.ShardInserts(s) }), nl, sl)
		reg.CounterFunc("cascade_node_shard_evictions_total", "Victims this shard evicted to make room.",
			read(func(st *engine.Sharded) int64 { return st.ShardEvictions(s) }), nl, sl)
		reg.CounterFunc("cascade_node_shard_lock_waits_total", "Contended acquisitions of this shard's lock.",
			read(func(st *engine.Sharded) int64 { return st.ShardLockWaits(s) }), nl, sl)
	}
}

// MetricsHandler serves the node's registry in the Prometheus text
// exposition format — mount it on an operations listener, or let the node
// itself serve it at /cascade/metrics.
func (n *Node) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.MetricsRegistry().WritePrometheus(w) //nolint:errcheck
	})
}
