// Package freq implements the sliding-window access-frequency estimator
// used by the cost-aware caching schemes (paper §3.2, following Shim,
// Scheuermann & Vingralek's proxy-cache work [17]).
//
// For each object, up to K most recent reference times are recorded. The
// frequency estimate at time t is
//
//	f(O) = 𝒦 / (t − t_𝒦)
//
// where 𝒦 ≤ K is the number of recorded references and t_𝒦 the oldest
// recorded reference time. To bound bookkeeping cost, the cached estimate is
// refreshed only when the object is referenced and, to reflect aging of
// unreferenced objects, whenever the cached value is older than a refresh
// interval (the paper uses 10 minutes).
package freq

// DefaultK is the paper's window size (3 most recent references).
const DefaultK = 3

// DefaultRefreshInterval is the paper's aging interval in seconds (10 min).
const DefaultRefreshInterval = 600.0

// epsilon (seconds) guards the denominator when the window span is tiny —
// in particular when a single reference has just been recorded (t = t_1) or
// all recorded references share one coarse trace timestamp. One second caps
// the estimate of a just-referenced object at 𝒦 requests/second instead of
// letting it diverge.
const epsilon = 1.0

// maxK bounds the window size; descriptors embed the ring inline, so the
// cap keeps them compact (the paper uses K = 3; 8 leaves room for
// experimentation without heap-allocating per object).
const maxK = 8

// Window estimates the access frequency of a single object from its K most
// recent reference times. The zero value is unusable; construct with
// NewWindow. Window is not safe for concurrent use; each cache node owns its
// descriptors exclusively.
//
// count, head and k never exceed maxK = 8, so they are one byte each and sit
// after the float64 fields: that keeps the struct at 96 bytes, which is what
// lets cache.Descriptor fit the allocator's 160-byte class.
type Window struct {
	times [maxK]float64 // ring buffer of reference times

	est     float64 // cached estimate
	estTime float64 // time the estimate was computed
	refresh float64 // aging interval

	count uint8 // 𝒦: number of valid entries, ≤ k
	head  uint8 // position of the next write
	k     uint8 // configured window size, ≤ maxK
}

// NewWindow returns a Window recording up to k reference times (1 ≤ k ≤ 8)
// whose cached estimate is refreshed on reference and after
// refreshInterval seconds of staleness. Passing k ≤ 0 selects the paper's
// K = 3; k above the cap clamps to 8. refreshInterval ≤ 0 selects the
// paper's 10 minutes.
func NewWindow(k int, refreshInterval float64) Window {
	if k <= 0 {
		k = DefaultK
	}
	if k > maxK {
		k = maxK
	}
	if refreshInterval <= 0 {
		refreshInterval = DefaultRefreshInterval
	}
	return Window{k: uint8(k), refresh: refreshInterval, estTime: -1}
}

// K returns the configured window size.
func (w *Window) K() int { return int(w.k) }

// Record notes a reference at time now and refreshes the cached estimate.
// Reference times must be non-decreasing across calls.
func (w *Window) Record(now float64) {
	w.times[w.head] = now
	w.head = (w.head + 1) % w.k
	if w.count < w.k {
		w.count++
	}
	w.est = w.compute(now)
	w.estTime = now
}

// Count returns the number of recorded references, at most K.
func (w *Window) Count() int { return int(w.count) }

// LastAccess returns the most recent recorded reference time, or -1 if no
// reference has been recorded.
func (w *Window) LastAccess() float64 {
	if w.count == 0 {
		return -1
	}
	return w.times[(w.head+w.k-1)%w.k]
}

// Estimate returns the access-frequency estimate at time now. The cached
// value is returned unless it is older than the refresh interval, in which
// case it is recomputed (aging unreferenced objects toward zero).
func (w *Window) Estimate(now float64) float64 {
	if w.count == 0 {
		return 0
	}
	if w.estTime < 0 || now-w.estTime >= w.refresh {
		w.est = w.compute(now)
		w.estTime = now
	}
	return w.est
}

// Peek returns the cached estimate without any refresh. It is what a
// descriptor serialized onto a request message would carry.
func (w *Window) Peek() float64 { return w.est }

// compute evaluates 𝒦/(now − t_𝒦) directly.
func (w *Window) compute(now float64) float64 {
	if w.count == 0 {
		return 0
	}
	// Oldest recorded time: with a full ring it is at head; otherwise the
	// ring was filled from index 0.
	oldest := w.times[0]
	if w.count == w.k {
		oldest = w.times[w.head]
	}
	dt := now - oldest
	if w.count == 1 {
		// A single reference spans no interval, so 𝒦/(t−t_𝒦) is
		// undefined exactly when caching decisions need it (the access
		// instant). Assume at most one request per refresh interval:
		// otherwise first-touch objects would look hotter than any
		// genuinely popular object and flood every cost-aware cache
		// with one-hit wonders.
		if dt < w.refresh {
			dt = w.refresh
		}
	} else if dt < epsilon {
		dt = epsilon
	}
	return float64(w.count) / dt
}

// Times returns the recorded reference times, oldest first. The result is
// freshly allocated.
func (w *Window) Times() []float64 {
	out := make([]float64, 0, w.count)
	start := uint8(0)
	if w.count == w.k {
		start = w.head
	}
	for i := uint8(0); i < w.count; i++ {
		out = append(out, w.times[(start+i)%w.k])
	}
	return out
}
