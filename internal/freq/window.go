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
// recorded reference time. To bound bookkeeping cost, the estimate is
// re-evaluated only when the object is referenced and, to reflect aging of
// unreferenced objects, whenever it is older than the refresh interval (the
// paper uses 10 minutes). The estimate itself is not stored: a window keeps
// the time it was last evaluated at, estTime, and derives 𝒦/(estTime − t_𝒦)
// from the recorded times on demand. The times change only in Record, which
// moves estTime to the reference, so the derived value is exactly what a
// cached one would be.
package freq

// DefaultK is the paper's window size (3 most recent references).
const DefaultK = 3

// MaxK bounds the window size (the paper uses K = 3; 8 leaves room for
// experimentation).
const MaxK = 8

// DefaultRefreshInterval is the paper's aging interval in seconds (10 min).
const DefaultRefreshInterval = 600.0

// epsilon (seconds) guards the denominator when the window span is tiny —
// in particular when a single reference has just been recorded (t = t_1) or
// all recorded references share one coarse trace timestamp. One second caps
// the estimate of a just-referenced object at 𝒦 requests/second instead of
// letting it diverge.
const epsilon = 1.0

// inlineK reference times sit inside the Window itself: the paper's K.
const inlineK = DefaultK

// Window estimates the access frequency of a single object from its K most
// recent reference times. The zero value is unusable; construct with
// NewWindow. Window is not safe for concurrent use; each cache node owns its
// descriptors exclusively, and a Window must not be copied while the copy
// and the original are both recorded into (they would share the overflow
// ring).
//
// The ring of K times is the inline array, continued for K > 3 in an
// overflow array allocated once by NewWindow and kept by Reset. count, head
// and k never exceed MaxK, so they are one byte each: the struct is 48
// bytes, which is what lets cache.Descriptor fit the allocator's 96-byte
// class.
type Window struct {
	times   [inlineK]float64         // ring positions 0 … inlineK−1
	more    *[MaxK - inlineK]float64 // ring positions inlineK … k−1; nil until some k > inlineK needs it
	estTime float64                  // time the estimate was last evaluated at; −1 before any

	count uint8 // 𝒦: number of valid entries, ≤ k
	head  uint8 // position of the next write
	k     uint8 // configured window size, ≤ MaxK
}

// NewWindow returns a Window recording up to k reference times (1 ≤ k ≤ 8)
// whose estimate is re-evaluated on reference and after
// DefaultRefreshInterval seconds of staleness. Passing k ≤ 0 selects the
// paper's K = 3; k above the cap clamps to 8.
func NewWindow(k int) Window {
	var w Window
	w.Reset(k)
	return w
}

// Reset reinitializes the window to size k (clamped as by NewWindow) with
// no recorded references. An overflow ring the window already has is kept
// for reuse, so recycling a descriptor allocates nothing.
func (w *Window) Reset(k int) {
	if k <= 0 {
		k = DefaultK
	}
	if k > MaxK {
		k = MaxK
	}
	more := w.more
	if k > inlineK && more == nil {
		more = new([MaxK - inlineK]float64)
	}
	*w = Window{more: more, estTime: -1, k: uint8(k)}
}

// K returns the configured window size.
func (w *Window) K() int { return int(w.k) }

// at returns ring position i.
func (w *Window) at(i uint8) *float64 {
	if i < inlineK {
		return &w.times[i]
	}
	return &w.more[i-inlineK]
}

// Record notes a reference at time now, at which the estimate is
// re-evaluated. Reference times must be non-decreasing across calls.
func (w *Window) Record(now float64) {
	*w.at(w.head) = now
	w.head = (w.head + 1) % w.k
	if w.count < w.k {
		w.count++
	}
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
	return *w.at((w.head + w.k - 1) % w.k)
}

// Estimate returns the access-frequency estimate at time now: the value at
// the last evaluation time unless that is older than the refresh interval,
// in which case the estimate is re-evaluated at now (aging unreferenced
// objects toward zero).
func (w *Window) Estimate(now float64) float64 {
	if w.count == 0 {
		return 0
	}
	if w.estTime < 0 || now-w.estTime >= DefaultRefreshInterval {
		w.estTime = now
	}
	return w.compute(w.estTime)
}

// Peek returns the estimate at the last evaluation time, without any
// refresh. It is what a descriptor serialized onto a request message would
// carry.
func (w *Window) Peek() float64 { return w.compute(w.estTime) }

// compute evaluates 𝒦/(now − t_𝒦) directly.
func (w *Window) compute(now float64) float64 {
	if w.count == 0 {
		return 0
	}
	// Oldest recorded time: with a full ring it is at head; otherwise the
	// ring was filled from index 0.
	oldest := w.times[0]
	if w.count == w.k {
		oldest = *w.at(w.head)
	}
	dt := now - oldest
	if w.count == 1 {
		// A single reference spans no interval, so 𝒦/(t−t_𝒦) is
		// undefined exactly when caching decisions need it (the access
		// instant). Assume at most one request per refresh interval:
		// otherwise first-touch objects would look hotter than any
		// genuinely popular object and flood every cost-aware cache
		// with one-hit wonders.
		if dt < DefaultRefreshInterval {
			dt = DefaultRefreshInterval
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
		out = append(out, *w.at((start + i) % w.k))
	}
	return out
}
