package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAtomicHistogramMatchesPlain drives identical value streams through
// the atomic and plain histograms: every quantile must agree exactly,
// since they share one bucket ladder.
func TestAtomicHistogramMatchesPlainRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ah AtomicHistogram
	var ph Histogram
	sum := 0.0
	for i := 0; i < 10_000; i++ {
		v := math.Pow(10, rng.Float64()*6-5) // 1e-5 .. 10 seconds
		if i%100 == 0 {
			v = 0 // exact-zero lane
		}
		ah.Record(v)
		ph.Record(v)
		sum += v
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := ah.Quantile(q), ph.Quantile(q); got != want {
			t.Fatalf("q%v: atomic %v, plain %v", q, got, want)
		}
	}
	if ah.Count() != ph.Count() {
		t.Fatalf("count %d vs %d", ah.Count(), ph.Count())
	}
	if math.Abs(ah.Sum()-sum) > 1e-9*sum {
		t.Fatalf("sum %v, want %v", ah.Sum(), sum)
	}
}

// TestAtomicHistogramRecordVsSnapshot runs recorders against a concurrent
// snapshotter; under -race this is the data-race check, and afterwards the
// totals must be exact. Every snapshot observed along the way must satisfy
// the clamp invariant (count never exceeds the sum of bucket+zero cells).
func TestAtomicHistogramRecordVsSnapshot(t *testing.T) {
	const writers, perWriter = 8, 5_000
	var h AtomicHistogram
	stop := make(chan struct{})

	var clampBroken atomic.Bool
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.Snapshot()
			seen := snap.Zero()
			snap.ForEachBucket(func(_ int, n int64) { seen += n })
			if snap.Count() > seen {
				clampBroken.Store(true)
				return
			}
			_ = snap.Quantile(0.99)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Record(rng.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if clampBroken.Load() {
		t.Fatal("snapshot count exceeded the sum of its cells")
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count %d, want %d", got, writers*perWriter)
	}
}

// TestHistogramMergeEquivalence is the property federation relies on:
// recording a stream split across N histograms and merging equals
// recording the whole stream into one — bucket for bucket, quantile for
// quantile.
func TestHistogramMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parts := make([]Histogram, 4)
	var whole Histogram
	for i := 0; i < 20_000; i++ {
		v := math.Pow(10, rng.Float64()*8-5)
		if i%50 == 0 {
			v = 0
		}
		parts[i%len(parts)].Record(v)
		whole.Record(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged histogram differs from the whole-stream histogram")
	}
}

// TestHistogramAddLeRoundTrip rebuilds a histogram from its own _bucket
// exposition (cumulative counts at non-empty upper bounds) and checks the
// reconstruction is exact — the scrape-side half of federation.
func TestHistogramAddLeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var orig Histogram
	for i := 0; i < 5_000; i++ {
		v := math.Pow(10, rng.Float64()*8-5)
		if i%25 == 0 {
			v = 0
		}
		orig.Record(v)
	}

	// Re-derive (le, delta) pairs exactly as the exposition writes them.
	type pair struct {
		le  float64
		cum int64
	}
	var pairs []pair
	cum := orig.Zero()
	if cum > 0 {
		pairs = append(pairs, pair{1e-5, cum})
	}
	orig.ForEachBucket(func(idx int, n int64) {
		cum += n
		pairs = append(pairs, pair{bucketUpperBound(idx), cum})
	})

	var rebuilt Histogram
	prev := int64(0)
	for _, p := range pairs {
		rebuilt.AddLe(p.le, p.cum-prev)
		prev = p.cum
	}
	if rebuilt != orig {
		t.Fatal("histogram rebuilt from its bucket exposition differs from the original")
	}
}

// TestSummaryBucketExposition scrapes a registry summary and checks the
// histogram lines: cumulative, monotone, ending at le="+Inf" == _count,
// alongside the legacy quantile lines.
func TestSummaryBucketExposition(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("demo_seconds", "demo", L("node", "3"))
	for _, v := range []float64{0, 0.001, 0.001, 0.25, 3} {
		s.Record(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	var lastCum int64 = -1
	var infCum, count int64 = -1, -1
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "demo_seconds_bucket{"):
			buckets++
			if !strings.Contains(line, `node="3"`) {
				t.Fatalf("bucket line lost its labels: %s", line)
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			if v < lastCum {
				t.Fatalf("bucket counts not cumulative: %s after %d", line, lastCum)
			}
			lastCum = v
			if strings.Contains(line, `le="+Inf"`) {
				infCum = v
			}
		case strings.HasPrefix(line, "demo_seconds_count{"):
			count, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	// zero lane + three distinct value buckets + +Inf
	if buckets != 5 {
		t.Fatalf("got %d bucket lines, want 5:\n%s", buckets, out)
	}
	if infCum != 5 || count != 5 {
		t.Fatalf("le=+Inf %d / _count %d, want 5/5:\n%s", infCum, count, out)
	}
	if !strings.Contains(out, `demo_seconds{node="3",quantile="0.99"}`) {
		t.Fatalf("legacy quantile line missing:\n%s", out)
	}
}
