// Command cascadegw runs one node of a coordinated HTTP cache chain — the
// paper's protocol as a deployable gateway process. Start an origin, then
// chain gateways toward the clients:
//
//	cascadegw -origin -listen :8080 -object-size 4096
//	cascadegw -listen :8081 -upstream http://localhost:8080 -cost 0.10 -capacity 256MB
//	cascadegw -listen :8082 -upstream http://localhost:8081 -cost 0.02 -capacity 64MB
//
// Clients fetch GET /objects/<id> from the last gateway. All coordination
// state (piggybacked frequencies, cost losses, the placement decision, the
// miss-penalty counter) travels in X-Cascade-* headers; see package
// internal/httpgw.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"cascade"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cascadegw:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", ":8080", "address to serve on")
		origin   = flag.Bool("origin", false, "run as the origin server instead of a cache gateway")
		objSize  = flag.Int("object-size", 4096, "origin: payload bytes per synthetic object")
		dir      = flag.String("dir", "", "origin: serve files from this directory instead of synthesizing")
		upstream = flag.String("upstream", "", "gateway: upstream base URL (origin or next gateway)")
		cost     = flag.Float64("cost", 0.1, "gateway: cost of the link toward upstream")
		capacity = flag.String("capacity", "64MB", "gateway: cache capacity (e.g. 512KB, 64MB, 2GB)")
		dEntries = flag.Int("dcache", 10000, "gateway: descriptor-cache entries")
		shards   = flag.Int("shards", 1, "gateway: partition the cache state across this many shards (rounded up to a power of two)")
		nodeID   = flag.Int("id", 0, "gateway: node ID used in protocol headers")
		state    = flag.String("state", "", "gateway: warm-start snapshot file (loaded at boot, saved on shutdown)")
		ttl      = flag.Float64("ttl", 0, "gateway: revalidate cached copies older than this many seconds (0 = never)")
		cohMode  = flag.String("coherency", "", "coherency mode (ttl, psi, cas); origin: attach the generation authority, gateway: generation-guarded serving (empty = off)")

		segThreshold = flag.String("segment-threshold", "0", "origin: segment objects larger than this size (e.g. 1MB; 0 = never segment)")
		segSize      = flag.String("segment-size", "0", "origin: Range-segment size for large objects (defaults to the threshold)")
		spillDir     = flag.String("spill-dir", "", "gateway: spill evicted bodies to per-object files in this directory (empty = drop on evict)")
		spillMax     = flag.String("spill-max", "0", "gateway: disk budget for the spill tier (e.g. 1GB; 0 = unbounded)")
		spillTTL     = flag.Float64("spill-ttl", 0, "gateway: drop spilled bodies older than this many seconds (0 = keep until displaced)")

		originURL   = flag.String("origin-url", "", "gateway: origin base URL for degraded-mode fallback when the upstream chain is unreachable")
		upTimeout   = flag.Duration("up-timeout", 0, "gateway: upstream request timeout (0 = built-in default)")
		retries     = flag.Int("retries", 0, "gateway: upstream retries after the initial attempt (0 = default, negative = none)")
		upHealth    = flag.Float64("up-health-interval", 1, "gateway: seconds between active upstream health probes (≤ 0 = disabled)")
		spanRate    = flag.Float64("spans", -1, "enable cascade-wide span tracing, keeping this fraction of unremarkable traces (error/stale/slow always kept; negative = disabled; the origin keeps its decide spans); dump via GET /cascade/debug/spans")
		spanCap     = flag.Int("span-capacity", 512, "span-ring capacity in records (with -spans; without, the ring keeps 256 event records)")
		spanSlow    = flag.Duration("span-slow", 0, "force-keep traces slower than this end-to-end (with -spans; 0 = no slow threshold)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		metricsAddr = flag.String("metrics", "", "serve Prometheus /metrics on this address (e.g. localhost:9090; empty = disabled)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// A dedicated mux so the profiling endpoints never ride on the
		// public cache listener.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "cascadegw: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			psrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "cascadegw: pprof: %v\n", err)
			}
		}()
	}

	var handler http.Handler
	var node *cascade.HTTPCacheNode
	if *origin {
		var o *cascade.HTTPOrigin
		if *dir != "" {
			o = cascade.NewHTTPFileOrigin(*dir)
			fmt.Fprintf(os.Stderr, "cascadegw: origin on %s serving %s\n", *listen, *dir)
		} else {
			o = cascade.NewHTTPOrigin(func(cascade.ObjectID) int { return *objSize })
			fmt.Fprintf(os.Stderr, "cascadegw: origin on %s (%d-byte objects)\n", *listen, *objSize)
		}
		thr, err := cascade.ParseBytes(*segThreshold)
		if err != nil {
			return fmt.Errorf("-segment-threshold: %w", err)
		}
		seg, err := cascade.ParseBytes(*segSize)
		if err != nil {
			return fmt.Errorf("-segment-size: %w", err)
		}
		if seg == 0 {
			seg = thr
		}
		o.SegmentThreshold, o.SegmentSize = thr, seg
		if thr > 0 {
			fmt.Fprintf(os.Stderr, "cascadegw: segmenting objects over %s\n", *segThreshold)
		}
		if *cohMode != "" {
			mode, err := cascade.ParseCoherencyMode(*cohMode)
			if err != nil {
				return fmt.Errorf("-coherency: %w", err)
			}
			if mode != cascade.CoherencyNone {
				// The origin is the cascade's sole generation authority:
				// POST /cascade/admin/invalidate bumps generations here.
				o.Authority = cascade.NewCoherencyAuthority()
				fmt.Fprintf(os.Stderr, "cascadegw: origin generation authority enabled (%s)\n", mode)
			}
		}
		// The origin decides every placement that missed the whole chain:
		// its node audits them, in wall time like a cache node's.
		node = o.Node()
		node.Clock = cascade.WallClock()
		handler = o
	} else {
		if *upstream == "" {
			return fmt.Errorf("gateway mode needs -upstream (or pass -origin)")
		}
		capBytes, err := cascade.ParseBytes(*capacity)
		if err != nil {
			return fmt.Errorf("-capacity: %w", err)
		}
		node = cascade.NewHTTPCacheNode(cascade.NodeID(*nodeID),
			strings.TrimRight(*upstream, "/"), *cost, capBytes, *dEntries, cascade.WallClock())
		node.TTL = *ttl
		if *shards > 1 {
			node.SetShards(*shards)
		}
		if *cohMode != "" {
			mode, err := cascade.ParseCoherencyMode(*cohMode)
			if err != nil {
				return fmt.Errorf("-coherency: %w", err)
			}
			// Before EnableSpill: the spill tier's generation-floor oracle
			// is wired from the coherency view at spill setup.
			node.EnableCoherency(mode)
			if mode != cascade.CoherencyNone {
				fmt.Fprintf(os.Stderr, "cascadegw: %s coherency enabled\n", mode)
			}
		}
		if *spillDir != "" {
			maxBytes, err := cascade.ParseBytes(*spillMax)
			if err != nil {
				return fmt.Errorf("-spill-max: %w", err)
			}
			if err := node.EnableSpill(*spillDir, maxBytes, *spillTTL); err != nil {
				return fmt.Errorf("-spill-dir: %w", err)
			}
			fmt.Fprintf(os.Stderr, "cascadegw: spilling evicted bodies to %s\n", *spillDir)
		}
		node.OriginURL = strings.TrimRight(*originURL, "/")
		node.MaxRetries = *retries
		if *upTimeout != 0 {
			node.Client = cascade.NewHTTPUpstreamClient(*upTimeout)
		}
		if *upHealth > 0 {
			// The active prober finds a dead upstream Down even when no
			// request flows, so requests fail fast to the degraded path
			// without spending themselves on it.
			probeStop := make(chan struct{})
			defer close(probeStop)
			node.StartUpstreamHealthCheck(time.Duration(*upHealth*float64(time.Second)), probeStop)
		}
		if *state != "" {
			if f, err := os.Open(*state); err == nil {
				n, lerr := node.LoadSnapshot(f, 0)
				f.Close()
				if lerr != nil {
					fmt.Fprintf(os.Stderr, "cascadegw: snapshot load: %v\n", lerr)
				} else {
					fmt.Fprintf(os.Stderr, "cascadegw: warm-started %d objects from %s\n", n, *state)
				}
			}
			defer saveState(node, *state)
		}
		handler = node
		fmt.Fprintf(os.Stderr, "cascadegw: node %d on %s → %s (capacity %s, link cost %g)\n",
			*nodeID, *listen, *upstream, *capacity, *cost)
	}
	// Observability means the same at the origin's node as at a cache node.
	if *spanRate >= 0 {
		node.EnableSpans(cascade.SpanPolicy{Rate: *spanRate, Slow: spanSlow.Seconds()}, *spanCap)
		fmt.Fprintf(os.Stderr, "cascadegw: span tracing on (sample rate %g, ring %d)\n", *spanRate, *spanCap)
	}
	if *metricsAddr != "" {
		// Same separate-listener model as -pprof: operational scrapes never
		// contend with the public listener. The node also serves the
		// identical payload at /cascade/metrics on the main listener for
		// single-port deployments.
		mux := http.NewServeMux()
		mux.Handle("/metrics", node.MetricsHandler())
		go func() {
			fmt.Fprintf(os.Stderr, "cascadegw: metrics on http://%s/metrics\n", *metricsAddr)
			msrv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := msrv.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "cascadegw: metrics: %v\n", err)
			}
		}()
	}

	// IdleTimeout outlasts the upstream client's idle limit, and closes what
	// a departed downstream left (docs/PROTOCOL.md, "Hop connections").
	srv := &http.Server{Addr: *listen, Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: cascade.HTTPServerIdleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	select {
	case err := <-errc:
		return err
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// saveState persists a node's cache for warm restarts.
func saveState(node *cascade.HTTPCacheNode, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascadegw: snapshot save: %v\n", err)
		return
	}
	defer f.Close()
	if err := node.SaveSnapshot(f); err != nil {
		fmt.Fprintf(os.Stderr, "cascadegw: snapshot save: %v\n", err)
	}
}
