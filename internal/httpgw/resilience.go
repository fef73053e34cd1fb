package httpgw

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

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

// ErrBreakerOpen is returned by upstream fetches refused while the
// circuit breaker is open.
var ErrBreakerOpen = errors.New("httpgw: upstream circuit breaker open")

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: upstream healthy, requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures crossed the threshold; upstream
	// fetches fail fast and requests are served in degraded mode until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; a single probe request is in
	// flight. Success closes the breaker, failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Resolved resilience defaults (see the Node field docs for the zero-value
// conventions: 0 means "use the default", negative disables).
const (
	defaultMaxRetries       = 2
	defaultRetryBase        = 25 * time.Millisecond
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 30.0 // Clock seconds
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

func (n *Node) breakerThreshold() int {
	if n.BreakerThreshold < 0 {
		return 0 // disabled
	}
	if n.BreakerThreshold == 0 {
		return defaultBreakerThreshold
	}
	return n.BreakerThreshold
}

func (n *Node) breakerCooldown() float64 {
	if n.BreakerCooldown > 0 {
		return n.BreakerCooldown
	}
	return defaultBreakerCooldown
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

// The breaker's functions below are the only holders of n.mu.

// breakerAllow reports whether an upstream fetch may proceed and
// transitions open → half-open when the cooldown has elapsed.
func (n *Node) breakerAllow(now float64) bool {
	if n.breakerThreshold() == 0 {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.breaker {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now-n.breakerOpenedAt < n.breakerCooldown() {
			return false
		}
		n.breaker = BreakerHalfOpen
		n.probing = true
		n.recordBreakerLocked(now)
		return true
	default: // half-open: one probe at a time
		if n.probing {
			return false
		}
		n.probing = true
		return true
	}
}

// recordBreakerLocked writes a breaker event record for a state
// transition that just happened. Caller holds n.mu.
func (n *Node) recordBreakerLocked(now float64) {
	e := span.Event(span.PhaseBreaker, n.ID, now)
	e.N = int(n.breaker)
	n.spans.Add(e)
}

// breakerSuccess records a successful upstream exchange.
func (n *Node) breakerSuccess() {
	n.mu.Lock()
	defer n.mu.Unlock()
	closing := n.breaker != BreakerClosed
	n.breakerFails = 0
	n.breaker = BreakerClosed
	n.probing = false
	if closing {
		n.recordBreakerLocked(n.Clock())
	}
}

// breakerFailure records an exhausted upstream exchange (all retries
// failed).
func (n *Node) breakerFailure(now float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.probing = false
	if n.breakerThreshold() == 0 {
		return
	}
	if n.breaker == BreakerHalfOpen {
		// The probe failed: straight back to open.
		n.breaker = BreakerOpen
		n.breakerOpenedAt = now
		n.breakerOpens.Add(1)
		n.recordBreakerLocked(now)
		return
	}
	n.breakerFails++
	if n.breakerFails >= n.breakerThreshold() && n.breaker == BreakerClosed {
		n.breaker = BreakerOpen
		n.breakerOpenedAt = now
		n.breakerOpens.Add(1)
		n.recordBreakerLocked(now)
	}
}

// breakerAbandon records an exchange its client gave up on: a half-open
// probe ends without a verdict.
func (n *Node) breakerAbandon() {
	n.mu.Lock()
	n.probing = false
	n.mu.Unlock()
}

// fetchUpstream performs one logical upstream exchange: breaker check,
// bounded retries with exponential backoff and jitter on transport errors
// and transient 5xx statuses, breaker bookkeeping on the outcome. The
// returned response (when err == nil) is either a success or a
// non-retryable status the caller must pass through.
func (n *Node) fetchUpstream(req *http.Request) (*http.Response, error) {
	// The active prober's verdict gates ahead of the breaker: the breaker
	// needs consecutive request failures to learn anything, the prober
	// already knows. A Down upstream fails fast into degraded mode.
	if !n.cp.Routable(upSlot) {
		return nil, ErrUpstreamDown
	}
	if !n.breakerAllow(n.Clock()) {
		return nil, ErrBreakerOpen
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
			n.breakerSuccess()
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
			n.breakerAbandon()
			return nil, lastErr
		}
		if attempt >= n.maxRetries() {
			break
		}
		n.retries.Add(1)
		n.sleep(n.backoff(attempt))
	}
	n.breakerFailure(n.Clock())
	return nil, lastErr
}

// serveDegraded serves the request straight from OriginURL, bypassing the
// broken upstream chain: no piggybacking, no placement, no caching — just
// content. Reports whether it handled the response (false when no origin
// is configured, so the caller can fail conventionally).
func (n *Node) serveDegraded(w http.ResponseWriter, r *http.Request) bool {
	if n.OriginURL == "" {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.OriginURL+r.URL.Path, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return true
	}
	resp, err := n.client().Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return true
	}
	defer resp.Body.Close()
	n.degraded.Add(1)
	w.Header().Set(headerDegraded, "1")
	w.Header().Set(HeaderHit, "origin")
	if tag := resp.Header.Get("ETag"); tag != "" {
		w.Header().Set("ETag", tag)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck
	return true
}

// Breaker returns the circuit breaker's current state.
func (n *Node) Breaker() BreakerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.breaker
}
