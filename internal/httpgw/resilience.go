package httpgw

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"cascade/internal/controlplane"
	"cascade/internal/span"
)

// DefaultUpstreamTimeout bounds upstream fetches when Node.Client is nil.
// A hung upstream must not wedge the whole chain: every request either
// completes, retries, or degrades to the origin within this budget.
const DefaultUpstreamTimeout = 10 * time.Second

// defaultUpstreamClient is shared by all nodes whose Client is nil: its own
// keep-alive connections to every http:// upstream, and
// DefaultUpstreamTimeout on every exchange (NewUpstreamClient) — never
// http.DefaultClient, which has no timeout, keeps two idle connections per
// host and honours HTTP_PROXY.
var defaultUpstreamClient = NewUpstreamClient(DefaultUpstreamTimeout)

// Resolved retry defaults (see Node.MaxRetries for the zero-value
// conventions: 0 means "use the default", negative disables).
const (
	defaultMaxRetries = 2
	defaultRetryBase  = 25 * time.Millisecond
)

func (n *Node) client() *http.Client {
	if n.Client != nil {
		return n.Client
	}
	return defaultUpstreamClient
}

func (n *Node) maxRetries() int {
	if n.MaxRetries < 0 {
		return 0
	}
	if n.MaxRetries == 0 {
		return defaultMaxRetries
	}
	return n.MaxRetries
}

func (n *Node) sleep(d time.Duration) {
	if n.Sleep != nil {
		n.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoff returns the pause before retry number attempt (0-based):
// exponential growth from defaultRetryBase with full jitter on the increment, so
// synchronized retries from sibling nodes spread out.
func (n *Node) backoff(attempt int) time.Duration {
	base := defaultRetryBase << uint(attempt)
	return base + rand.N(base+1)
}

// retryableStatus reports whether an upstream status is worth retrying:
// transient gateway-side failures only. Anything else (404, 400, 200…) is
// a definitive answer that must pass through.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// errUpstreamDown is returned by upstream fetches refused because the
// upstream slot is Down, outside its cooldown trial.
var errUpstreamDown = errors.New("httpgw: upstream down")

// trial reports whether a request may go up to a Down upstream: once
// controlplane.Cooldown clock seconds have passed since the upstream went
// Down (transition) or since the last trial. Admitting a trial restarts the
// cooldown, so a trial its client abandons needs no bookkeeping of its own.
func (n *Node) trial() bool {
	last, now := n.trialAt.Load(), n.Clock()
	return now-math.Float64frombits(last) >= controlplane.Cooldown &&
		n.trialAt.CompareAndSwap(last, math.Float64bits(now))
}

// fetchUpstream performs one logical upstream exchange: the upstream
// slot's gate, bounded retries with exponential backoff and jitter on
// transport errors and transient 5xx statuses, and the outcome fed to the
// slot's threshold machine (docs/PROTOCOL.md, "Health-gated routing in the
// gateway"): an exchange whose retries ran out is a failure; a
// non-retryable answer is a success, except at a node whose prober runs,
// where only probes count as successes; an exchange its client gave up on
// counts for nothing. The returned response (when err == nil) is either a
// success or a non-retryable status the caller must pass through.
func (n *Node) fetchUpstream(req *http.Request) (*http.Response, error) {
	if !n.cp.Routable(upSlot) && !n.trial() {
		return nil, errUpstreamDown
	}

	client := n.client()
	var lastErr error
	for attempt := 0; ; attempt++ {
		// A body-less GET goes out as built; only a retry needs its own
		// copy, the transport having had its hands on the first.
		try := req
		if attempt > 0 {
			try = req.Clone(req.Context())
		}
		resp, err := client.Do(try)
		if err == nil && !retryableStatus(resp.StatusCode) {
			if !n.probed.Load() {
				n.upProbe.Observe(n.cp, upSlot, true)
			}
			return resp, nil
		}
		if err == nil {
			lastErr = fmt.Errorf("httpgw: upstream status %d", resp.StatusCode)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		} else {
			lastErr = err
		}
		// A dead client context makes further attempts pointless and
		// should not count against the upstream's health.
		if req.Context().Err() != nil {
			return nil, lastErr
		}
		if attempt >= n.maxRetries() {
			break
		}
		n.retries.Add(1)
		n.sleep(n.backoff(attempt))
	}
	n.upProbe.Observe(n.cp, upSlot, false)
	return nil, lastErr
}

// serveDegraded serves the request straight from OriginURL, bypassing the
// broken upstream chain: no piggybacking, no placement, no caching — just
// content, marked headerDegraded. A segment request forwards its segment
// headers; the origin's segmented marker is reassembled or relayed as a
// protocol marker is (segmentedAnswer), and each segment then degrades on
// its own. It reports whether the GET must start over (serveSegmented).
func (n *Node) serveDegraded(w http.ResponseWriter, r *http.Request, g *getReq, tsp *span.Trace, restarts int) (restart bool) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.OriginURL+r.URL.Path, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return false
	}
	if g.seg.on {
		forwardSegment(req.Header, r.Header)
	}
	resp, err := n.client().Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return false
	}
	defer resp.Body.Close()
	n.degraded.Add(1)
	h := w.Header()
	h.Set(headerDegraded, "1")
	if !g.seg.on && resp.StatusCode == http.StatusOK && resp.Header.Get(HeaderSegmented) != "" {
		return n.segmentedAnswer(w, r, g, resp, tsp, restarts)
	}
	h.Set(HeaderHit, originName)
	for _, k := range [...]string{"ETag", HeaderGen, "Content-Length", "Content-Range"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	copyStream(w, resp.Body) //nolint:errcheck
	return false
}
