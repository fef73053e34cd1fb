// Command cascadeload drives a coordinated gateway chain with a Zipf
// workload and reports latency percentiles, throughput and hit ratio.
//
// Two targets:
//
//   - live mode (-target): requests go to a running cascadegw front node,
//     hit ratio comes from scraping its /cascade/stats before and after;
//   - in-process mode (default): the tool assembles an origin plus a chain
//     of -nodes gateways on loopback listeners, so the chain hit ratio is
//     exact (one minus the fraction of requests that reached the origin)
//     and `make coherency` needs no running processes.
//
// Two arrival disciplines:
//
//   - closed loop (default): -users workers, each issuing its next request
//     the moment the previous one completes — throughput is a result;
//   - open loop (-rate): requests launch on a fixed schedule regardless of
//     completions, the discipline that actually exposes queueing collapse.
//
// The summary goes to stderr; with -write-ratio the run fails on any
// response served below a completed write's generation. Timings printed
// here are not gated — performance claims are judged on paired bench/ runs
// (docs/PERFORMANCE.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cascade"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cascadeload:", err)
		os.Exit(1)
	}
}

type config struct {
	target   string
	nodes    int
	capacity string
	objSize  int
	dEntries int
	shards   int

	objects    int
	zipfS      float64
	writeRatio float64
	users      int
	rate       float64
	requests   int
	duration   time.Duration
	warmup     int
	seed       int64

	cpuProfile string
	memProfile string
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.target, "target", "", "front gateway base URL (empty: build an in-process chain)")
	flag.IntVar(&cfg.nodes, "nodes", 3, "in-process: gateway chain length")
	flag.StringVar(&cfg.capacity, "capacity", "4MB", "in-process: cache capacity per gateway")
	flag.IntVar(&cfg.objSize, "object-size", 4096, "in-process: origin payload bytes per object")
	flag.IntVar(&cfg.dEntries, "dcache", 4096, "in-process: descriptor-cache entries per gateway")
	flag.IntVar(&cfg.shards, "shards", 1, "in-process: shards per gateway")
	flag.IntVar(&cfg.objects, "objects", 5000, "catalog size (object IDs 0..n-1)")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.2, "Zipf skew s (must be > 1)")
	flag.Float64Var(&cfg.writeRatio, "write-ratio", 0, "fraction of measured requests issued as origin writes (invalidations); enables CAS-strict coherency on the in-process chain")
	flag.IntVar(&cfg.users, "users", 8, "closed loop: concurrent users")
	flag.Float64Var(&cfg.rate, "rate", 0, "open loop: arrivals per second (0: closed loop)")
	flag.IntVar(&cfg.requests, "requests", 5000, "measured requests to issue")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop after this wall time even if -requests remain")
	flag.IntVar(&cfg.warmup, "warmup", 1000, "unmeasured warmup requests issued first")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured phase to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if err := validate(&cfg); err != nil {
		return err
	}

	front := cfg.target
	var originFetches *atomic.Int64
	if front == "" {
		url, counter, closeAll, err := buildChain(cfg)
		if err != nil {
			return err
		}
		defer closeAll()
		front, originFetches = url, counter
		coh := ""
		if cfg.writeRatio > 0 {
			coh = ", CAS-strict coherency"
		}
		fmt.Fprintf(os.Stderr, "cascadeload: in-process chain of %d gateways (capacity %s, %d shards, origin %d B objects%s)\n",
			cfg.nodes, cfg.capacity, cfg.shards, cfg.objSize, coh)
	}
	front = strings.TrimRight(front, "/")

	client := &http.Client{Timeout: 30 * time.Second}
	floors := newGenFloors(cfg.objects)

	// Warmup: sequential, unmeasured, so the measured phase sees caches in
	// their steady regime rather than cold-start compulsory misses.
	warmRng := rand.New(rand.NewSource(mixSeed(cfg.seed, streamWarmup)))
	warmZipf := newZipf(warmRng, cfg.zipfS, cfg.objects)
	for i := 0; i < cfg.warmup; i++ {
		if _, err := doGet(client, front, int(warmZipf.Uint64()), floors); err != nil {
			return fmt.Errorf("warmup request %d: %w", i, err)
		}
	}

	statsBefore, statsErr := scrapeStats(client, front)
	var originBefore int64
	if originFetches != nil {
		originBefore = originFetches.Load()
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var res *result
	var err error
	start := time.Now()
	if cfg.rate > 0 {
		res, err = openLoop(cfg, client, front, floors)
	} else {
		res, err = closedLoop(cfg, client, front, floors)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if cfg.memProfile != "" {
		f, ferr := os.Create(cfg.memProfile)
		if ferr != nil {
			return ferr
		}
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			f.Close()
			return werr
		}
		f.Close()
	}

	// Hit ratio: exact chain-wide in in-process mode, front-node delta from
	// /cascade/stats in live mode.
	hitRatio, hitSource := -1.0, "unavailable"
	if originFetches != nil {
		missed := originFetches.Load() - originBefore
		hitRatio = 1 - float64(missed)/float64(res.count)
		hitSource = "chain (origin fetch count)"
	} else if statsErr == nil {
		if after, err := scrapeStats(client, front); err == nil {
			dh := after.Hits - statsBefore.Hits
			dm := after.Misses - statsBefore.Misses
			if dh+dm > 0 {
				hitRatio = float64(dh) / float64(dh+dm)
				hitSource = "front node (/cascade/stats)"
			}
		}
	}

	report(cfg, res, elapsed, hitRatio, hitSource)
	// Under a mixed read/write workload the chain runs CAS-strict: a served
	// generation older than a write the generator had already completed is
	// a coherency SLO violation, and the run fails like a latency breach.
	if res.stale > 0 {
		return fmt.Errorf("%d responses served below a completed write's generation (CAS-strict SLO violation)", res.stale)
	}
	return nil
}

// validate rejects flag combinations outside the workload generator's
// domain up front, with the offending value in the message. rand.NewZipf
// silently returns nil for s <= 1 or imax < 1 (i.e. fewer than two
// objects), which used to surface as a nil dereference deep in the warmup
// loop instead of a usage error.
func validate(cfg *config) error {
	if cfg.zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1 (got %g)", cfg.zipfS)
	}
	if cfg.objects < 2 {
		return fmt.Errorf("-objects must be at least 2 for a Zipf catalog (got %d)", cfg.objects)
	}
	if cfg.requests < 1 || cfg.users < 1 {
		return fmt.Errorf("-requests and -users must be positive")
	}
	if cfg.warmup < 0 {
		return fmt.Errorf("-warmup must not be negative (got %d)", cfg.warmup)
	}
	if cfg.rate < 0 {
		return fmt.Errorf("-rate must not be negative (got %g)", cfg.rate)
	}
	if cfg.writeRatio < 0 || cfg.writeRatio >= 1 {
		return fmt.Errorf("-write-ratio must be in [0, 1) (got %g)", cfg.writeRatio)
	}
	return nil
}

// Stream indices for mixSeed: every RNG consumer gets its own stream, so no
// two phases or workers ever share a generator state.
const (
	streamWarmup   = 0
	streamOpenLoop = 1
	streamWorker0  = 2 // closed-loop worker w uses streamWorker0 + w
)

// mixSeed derives the seed for one RNG stream from the user's -seed via a
// splitmix64 finalizer. Additive offsets (the old seed+w+7919) made worker
// k's stream identical to the warmup stream of seed+k+7919 — adjacent seeds
// replayed each other's request sequences shifted by one worker. The
// finalizer's avalanche makes every (seed, stream) pair an independent
// sequence.
func mixSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) ^ (stream * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// newZipf builds one workload stream. validate guarantees the parameters
// are inside rand.NewZipf's domain; a nil return here is a programming
// error surfaced immediately instead of a deferred nil dereference.
func newZipf(rng *rand.Rand, s float64, objects int) *rand.Zipf {
	z := rand.NewZipf(rng, s, 1, uint64(objects-1))
	if z == nil {
		panic(fmt.Sprintf("cascadeload: rand.NewZipf rejected s=%g objects=%d", s, objects))
	}
	return z
}

// result holds the measured phase's raw latencies (nanoseconds).
type result struct {
	latencies []int64
	count     int
	errors    int
	writes    int // invalidations issued (counted inside count)
	stale     int // reads served below a completed write's generation
	dropped   int // open loop: arrivals skipped because inflight was saturated
}

// genFloors tracks, per object, the highest generation any completed write
// has been acknowledged at — the generator's own read-your-writes floor. A
// read that later serves below it caught the cascade lying about coherency.
type genFloors struct {
	gens []atomic.Uint64
}

func newGenFloors(objects int) *genFloors {
	return &genFloors{gens: make([]atomic.Uint64, objects)}
}

func (f *genFloors) load(obj int) uint64 { return f.gens[obj].Load() }

func (f *genFloors) raise(obj int, gen uint64) {
	for {
		cur := f.gens[obj].Load()
		if gen <= cur || f.gens[obj].CompareAndSwap(cur, gen) {
			return
		}
	}
}

// closedLoop runs cfg.users workers, each issuing its next request as soon
// as the previous completes. Each worker gets an independent Zipf stream;
// with -write-ratio set, that fraction of its requests become origin
// writes (invalidations) instead of reads.
func closedLoop(cfg config, client *http.Client, front string, floors *genFloors) (*result, error) {
	var (
		issued   atomic.Int64
		deadline time.Time
	)
	if cfg.duration > 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	perWorker := make([][]int64, cfg.users)
	errCounts := make([]int, cfg.users)
	writeCounts := make([]int, cfg.users)
	staleCounts := make([]int, cfg.users)
	var wg sync.WaitGroup
	for w := 0; w < cfg.users; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mixSeed(cfg.seed, streamWorker0+uint64(w))))
			zipf := newZipf(rng, cfg.zipfS, cfg.objects)
			for {
				if issued.Add(1) > int64(cfg.requests) {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				obj := int(zipf.Uint64())
				write := cfg.writeRatio > 0 && rng.Float64() < cfg.writeRatio
				t0 := time.Now()
				if write {
					if err := doWrite(client, front, obj, floors); err != nil {
						errCounts[w]++
						continue
					}
					writeCounts[w]++
				} else {
					stale, err := doGet(client, front, obj, floors)
					if err != nil {
						errCounts[w]++
						continue
					}
					if stale {
						staleCounts[w]++
					}
				}
				perWorker[w] = append(perWorker[w], time.Since(t0).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	res := &result{}
	for w := range perWorker {
		res.latencies = append(res.latencies, perWorker[w]...)
		res.errors += errCounts[w]
		res.writes += writeCounts[w]
		res.stale += staleCounts[w]
	}
	res.count = len(res.latencies)
	if res.count == 0 {
		return nil, fmt.Errorf("closed loop: no request succeeded (%d errors)", res.errors)
	}
	return res, nil
}

// openLoop launches arrivals on a fixed schedule regardless of completions.
// Inflight is capped at a generous bound so a stalled server degrades into
// counted drops instead of an unbounded goroutine pile-up; drops are
// reported, never silently discarded.
func openLoop(cfg config, client *http.Client, front string, floors *genFloors) (*result, error) {
	const maxInflight = 4096
	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	rng := rand.New(rand.NewSource(mixSeed(cfg.seed, streamOpenLoop)))
	zipf := newZipf(rng, cfg.zipfS, cfg.objects)

	var (
		mu        sync.Mutex
		latencies []int64
		errors    int
		writes    int
		stale     int
		dropped   int
		inflight  atomic.Int64
		wg        sync.WaitGroup
	)
	deadline := time.Time{}
	if cfg.duration > 0 {
		deadline = time.Now().Add(cfg.duration)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; i < cfg.requests; i++ {
		<-ticker.C
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		obj := int(zipf.Uint64())
		write := cfg.writeRatio > 0 && rng.Float64() < cfg.writeRatio
		if inflight.Load() >= maxInflight {
			dropped++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(obj int, write bool) {
			defer wg.Done()
			defer inflight.Add(-1)
			t0 := time.Now()
			var err error
			wasStale := false
			if write {
				err = doWrite(client, front, obj, floors)
			} else {
				wasStale, err = doGet(client, front, obj, floors)
			}
			d := time.Since(t0).Nanoseconds()
			mu.Lock()
			switch {
			case err != nil:
				errors++
			default:
				latencies = append(latencies, d)
				if write {
					writes++
				}
				if wasStale {
					stale++
				}
			}
			mu.Unlock()
		}(obj, write)
	}
	wg.Wait()
	if len(latencies) == 0 {
		return nil, fmt.Errorf("open loop: no request succeeded (%d errors, %d dropped)", errors, dropped)
	}
	return &result{latencies: latencies, count: len(latencies), errors: errors,
		writes: writes, stale: stale, dropped: dropped}, nil
}

// doGet fetches one object and drains the body (keep-alive reuse). The
// request carries the generator's own floor for the object as a CAS read
// floor; the response's generation is checked against the floor as it stood
// when the request was issued, so a write completing mid-flight can never
// count as a false positive.
func doGet(client *http.Client, front string, obj int, floors *genFloors) (stale bool, err error) {
	floor := floors.load(obj)
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/objects/%d", front, obj), nil)
	if err != nil {
		return false, err
	}
	if floor > 0 {
		req.Header.Set(cascade.HTTPHeaderGen, strconv.FormatUint(floor, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var gen uint64
	if h := resp.Header.Get(cascade.HTTPHeaderGen); h != "" {
		if gen, err = strconv.ParseUint(h, 10, 64); err != nil {
			return false, fmt.Errorf("bad %s header %q", cascade.HTTPHeaderGen, h)
		}
	}
	return gen < floor, nil
}

// doWrite bumps one object's generation through the chain's admin write
// path and raises the generator's floor to the acknowledged generation.
func doWrite(client *http.Client, front string, obj int, floors *genFloors) error {
	resp, err := client.Post(fmt.Sprintf("%s/cascade/admin/invalidate?obj=%d", front, obj), "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("invalidate status %d", resp.StatusCode)
	}
	var rep struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return err
	}
	floors.raise(obj, rep.Gen)
	return nil
}

// buildChain assembles origin ← gateway_(n-1) ← … ← gateway_0 on loopback
// listeners and returns the front URL, the origin fetch counter, and a
// closer. Node IDs run front-to-back 0..n-1 matching protocol hop order.
func buildChain(cfg config) (string, *atomic.Int64, func(), error) {
	capBytes, err := cascade.ParseBytes(cfg.capacity)
	if err != nil {
		return "", nil, nil, fmt.Errorf("-capacity: %w", err)
	}
	size := cfg.objSize
	origin := cascade.NewHTTPOrigin(func(cascade.ObjectID) int { return size })
	if cfg.writeRatio > 0 {
		// Writes need a generation authority at the origin; the chain runs
		// CAS-strict so a served stale response is a hard failure.
		origin.Authority = cascade.NewCoherencyAuthority()
	}
	var fetches atomic.Int64
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/objects/") {
			fetches.Add(1)
		}
		origin.ServeHTTP(w, r)
	})
	servers := []*httptest.Server{httptest.NewServer(counted)}
	upstream := servers[0].URL
	clock := cascade.WallClock()
	for i := cfg.nodes - 1; i >= 0; i-- {
		node := cascade.NewHTTPCacheNode(cascade.NodeID(i), upstream, 0.1, capBytes, cfg.dEntries, clock)
		if cfg.writeRatio > 0 {
			node.EnableCoherency(cascade.CoherencyCAS)
		}
		if cfg.shards > 1 {
			node.SetShards(cfg.shards)
		}
		srv := httptest.NewServer(node)
		servers = append(servers, srv)
		upstream = srv.URL
	}
	closeAll := func() {
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
	}
	return upstream, &fetches, closeAll, nil
}

// nodeStats is the slice of the /cascade/stats payload the tool consumes.
type nodeStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func scrapeStats(client *http.Client, front string) (nodeStats, error) {
	var st nodeStats
	resp, err := client.Get(front + "/cascade/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// report prints the run summary to stderr.
func report(cfg config, res *result, elapsed time.Duration, hitRatio float64, hitSource string) {
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	p := func(q float64) int64 {
		idx := int(q*float64(len(res.latencies))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(res.latencies) {
			idx = len(res.latencies) - 1
		}
		return res.latencies[idx]
	}
	p50, p99, p999 := p(0.50), p(0.99), p(0.999)
	rps := float64(res.count) / elapsed.Seconds()

	mode := fmt.Sprintf("closed loop, %d users", cfg.users)
	if cfg.rate > 0 {
		mode = fmt.Sprintf("open loop, %.0f req/s offered", cfg.rate)
	}
	fmt.Fprintf(os.Stderr, "cascadeload: %s; %d requests in %v (%.0f req/s), %d errors",
		mode, res.count, elapsed.Round(time.Millisecond), rps, res.errors)
	if res.dropped > 0 {
		fmt.Fprintf(os.Stderr, ", %d dropped at the inflight cap", res.dropped)
	}
	fmt.Fprintln(os.Stderr)
	if cfg.writeRatio > 0 {
		fmt.Fprintf(os.Stderr, "cascadeload: %d writes issued, %d stale responses (CAS-strict SLO: 0 allowed)\n",
			res.writes, res.stale)
	}
	fmt.Fprintf(os.Stderr, "cascadeload: latency p50 %v  p99 %v  p999 %v\n",
		time.Duration(p50).Round(time.Microsecond),
		time.Duration(p99).Round(time.Microsecond),
		time.Duration(p999).Round(time.Microsecond))
	if hitRatio >= 0 {
		fmt.Fprintf(os.Stderr, "cascadeload: hit ratio %.3f [%s]\n", hitRatio, hitSource)
	} else {
		fmt.Fprintf(os.Stderr, "cascadeload: hit ratio %s\n", hitSource)
	}

}
