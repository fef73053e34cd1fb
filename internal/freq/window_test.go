package freq

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestZeroReferences(t *testing.T) {
	w := NewWindow(3)
	if got := w.Estimate(100); got != 0 {
		t.Fatalf("estimate with no references = %v, want 0", got)
	}
	if w.Count() != 0 || w.LastAccess() != -1 {
		t.Fatalf("count=%d last=%v, want 0/-1", w.Count(), w.LastAccess())
	}
}

func TestSingleReference(t *testing.T) {
	w := NewWindow(3)
	w.Record(10)
	// 𝒦=1, t_𝒦=10 → f = 1/(t-10).
	if got, want := w.Estimate(10+2), 0.5; math.Abs(got-want) > 1e-12 {
		// estimate was cached at record time; force refresh far ahead
		_ = got
	}
	got := w.Estimate(10 + 700) // past refresh interval → recomputed
	want := 1.0 / 700.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("aged estimate = %v, want %v", got, want)
	}
}

func TestFullWindowUsesOldestOfK(t *testing.T) {
	w := NewWindow(3)
	for _, ts := range []float64{0, 10, 20, 30, 40} {
		w.Record(ts)
	}
	// Window holds {20,30,40}; at t=40, f = 3/(40-20).
	got := w.Peek()
	want := 3.0 / 20.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d, want 3", w.Count())
	}
	if w.LastAccess() != 40 {
		t.Fatalf("last access = %v, want 40", w.LastAccess())
	}
}

func TestPartialWindow(t *testing.T) {
	w := NewWindow(3)
	w.Record(5)
	w.Record(15)
	// 𝒦=2, t_𝒦=5 → at record time f = 2/(15-5).
	if got, want := w.Peek(), 0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
}

func TestCachedEstimateNotRefreshedWithinInterval(t *testing.T) {
	w := NewWindow(3)
	w.Record(0)
	cached := w.Estimate(1) // within interval → the value as of Record(0)
	if got := w.Estimate(599); got != cached {
		t.Fatalf("estimate changed within refresh interval: %v != %v", got, cached)
	}
	if got := w.Estimate(601); got == cached {
		t.Fatalf("estimate not refreshed after interval: still %v", got)
	}
}

func TestAgingDecreasesEstimate(t *testing.T) {
	w := NewWindow(3)
	w.Record(0)
	w.Record(1)
	w.Record(2)
	prev := w.Estimate(2)
	for _, now := range []float64{700, 1400, 2100, 5000} {
		cur := w.Estimate(now)
		if cur >= prev {
			t.Fatalf("estimate did not decay at t=%v: %v >= %v", now, cur, prev)
		}
		prev = cur
	}
}

func TestSameTimestampReferences(t *testing.T) {
	w := NewWindow(3)
	w.Record(7)
	w.Record(7)
	w.Record(7)
	got := w.Peek()
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("degenerate timestamps produced estimate %v", got)
	}
}

func TestDefaultsSelected(t *testing.T) {
	if w := NewWindow(0); w.K() != DefaultK {
		t.Fatalf("default not applied: k=%d", w.K())
	}
	if w := NewWindow(-2); w.K() != DefaultK {
		t.Fatalf("negative k not defaulted: k=%d", w.K())
	}
	if w := NewWindow(99); w.K() != MaxK {
		t.Fatalf("out-of-range k not clamped: k=%d", w.K())
	}
}

func TestLargerK(t *testing.T) {
	w := NewWindow(5)
	for _, ts := range []float64{0, 10, 20, 30, 40, 50, 60} {
		w.Record(ts)
	}
	// Window holds the last 5 references {20..60}: f = 5/(60-20).
	if got, want := w.Peek(), 5.0/40.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("K=5 estimate = %v, want %v", got, want)
	}
	if w.Count() != 5 || w.LastAccess() != 60 {
		t.Fatalf("count=%d last=%v", w.Count(), w.LastAccess())
	}
}

func TestSmallerK(t *testing.T) {
	w := NewWindow(1)
	w.Record(0)
	w.Record(100)
	// K=1: only the newest reference counts → f = 1/(now-100) after aging.
	got := w.Estimate(100 + 1000)
	want := 1.0 / 1000.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("K=1 estimate = %v, want %v", got, want)
	}
}

func TestEstimatePositiveQuick(t *testing.T) {
	prop := func(gaps []uint16) bool {
		w := NewWindow(3)
		now := 0.0
		for _, g := range gaps {
			now += float64(g%1000) / 10
			w.Record(now)
		}
		if len(gaps) == 0 {
			return w.Estimate(now) == 0
		}
		e := w.Estimate(now + 1)
		return e > 0 && !math.IsInf(e, 0) && !math.IsNaN(e)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreFrequentObjectsEstimateHigher(t *testing.T) {
	// Statistical sanity: an object referenced 10× as often should carry a
	// clearly larger estimate.
	r := rand.New(rand.NewSource(21))
	hot, cold := NewWindow(3), NewWindow(3)
	now := 0.0
	for i := 0; i < 10000; i++ {
		now += r.ExpFloat64()
		hot.Record(now)
		if i%10 == 0 {
			cold.Record(now)
		}
	}
	h, c := hot.Estimate(now), cold.Estimate(now)
	if h <= c {
		t.Fatalf("hot estimate %v not above cold %v", h, c)
	}
}

func BenchmarkRecordEstimate(b *testing.B) {
	w := NewWindow(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Record(float64(i))
		_ = w.Estimate(float64(i) + 0.5)
	}
}

func TestTimesOrder(t *testing.T) {
	w := NewWindow(3)
	if got := w.Times(); len(got) != 0 {
		t.Fatalf("empty window times = %v", got)
	}
	w.Record(1)
	w.Record(2)
	if got := w.Times(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("partial times = %v", got)
	}
	w.Record(3)
	w.Record(4) // wraps: {2,3,4}
	got := w.Times()
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("wrapped times = %v", got)
	}
}

// cachingWindow is the estimator as the paper states it: the last k times in
// a plain slice and an estimate cached at each reference and refreshed once
// it is a refresh interval old. Window derives its estimate instead of
// caching it; the two must agree bit for bit.
type cachingWindow struct {
	k       int
	times   []float64
	est     float64
	estTime float64
}

func (c *cachingWindow) compute(now float64) float64 {
	n := len(c.times)
	if n == 0 {
		return 0
	}
	dt := now - c.times[0]
	if n == 1 {
		dt = math.Max(dt, DefaultRefreshInterval)
	} else if dt < epsilon {
		dt = epsilon
	}
	return float64(n) / dt
}

func (c *cachingWindow) record(now float64) {
	c.times = append(c.times, now)
	if len(c.times) > c.k {
		c.times = c.times[1:]
	}
	c.est, c.estTime = c.compute(now), now
}

func (c *cachingWindow) estimate(now float64) float64 {
	if len(c.times) == 0 {
		return 0
	}
	if c.estTime < 0 || now-c.estTime >= DefaultRefreshInterval {
		c.est, c.estTime = c.compute(now), now
	}
	return c.est
}

// TestWindowMatchesCachingEstimator drives every window size through random
// references and reads, recycling the window now and then, against the
// caching reference: estimates, peeks, times and last accesses must be
// identical, including across refresh boundaries and for k above the three
// inline times.
func TestWindowMatchesCachingEstimator(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for k := 1; k <= MaxK; k++ {
		w := NewWindow(k)
		ref := &cachingWindow{k: k, estTime: -1}
		now := 0.0
		for op := 0; op < 20000; op++ {
			now += []float64{0, 0.3, 1, 50, 700}[r.Intn(5)]
			switch r.Intn(8) {
			case 0, 1, 2:
				w.Record(now)
				ref.record(now)
			case 7:
				if r.Intn(50) == 0 {
					w.Reset(k)
					*ref = cachingWindow{k: k, estTime: -1}
				}
			default:
				if got, want := w.Estimate(now), ref.estimate(now); got != want {
					t.Fatalf("k=%d op %d: Estimate(%v) = %v, reference %v", k, op, now, got, want)
				}
			}
			if got, want := w.Peek(), ref.est; len(ref.times) > 0 && got != want {
				t.Fatalf("k=%d op %d: Peek = %v, reference %v", k, op, got, want)
			}
			if got := w.Times(); !slices.Equal(got, ref.times) || w.Count() != len(ref.times) {
				t.Fatalf("k=%d op %d: times %v (count %d), reference %v", k, op, got, w.Count(), ref.times)
			}
			if n := len(ref.times); n > 0 && w.LastAccess() != ref.times[n-1] {
				t.Fatalf("k=%d op %d: last access %v, reference %v", k, op, w.LastAccess(), ref.times[n-1])
			}
		}
	}
}

// TestResetKeepsOverflowRing pins what recycling a descriptor relies on: a
// window above the inline size allocates its overflow ring once, Reset keeps
// it, and a window copied before Reset shares nothing recorded afterwards.
func TestResetKeepsOverflowRing(t *testing.T) {
	w := NewWindow(MaxK)
	ring := w.more
	if ring == nil {
		t.Fatal("a K = 8 window has no overflow ring")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset(MaxK)
		for i := 0; i < 20; i++ {
			w.Record(float64(i))
		}
	}); allocs != 0 || w.more != ring {
		t.Fatalf("Reset + Record allocated %v times (ring kept: %v)", allocs, w.more == ring)
	}
	if small := NewWindow(DefaultK); small.more != nil {
		t.Fatal("a K = 3 window allocated an overflow ring")
	}
}
