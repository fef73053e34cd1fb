package metrics

import "math"

// Histogram accumulates latencies in logarithmic buckets so that runs can
// report tail percentiles (the paper plots means only; tails are an
// extension this library adds). Buckets span 10µs to 10⁴ seconds with 20
// buckets per decade (≈12% relative resolution); values outside the range
// clamp into the edge buckets. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	zero    int64 // exact-zero values (e.g. hits at the first cache)
}

const (
	histMin          = 1e-5 // seconds
	histDecades      = 9
	histPerDecade    = 20
	histBuckets      = histDecades * histPerDecade
	histBucketFactor = histPerDecade / 1.0 // buckets per log10 unit
)

// bucketOf maps a positive value to its bucket index.
func bucketOf(v float64) int {
	idx := int(math.Floor(math.Log10(v/histMin) * histBucketFactor))
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketValue returns the geometric midpoint of a bucket.
func bucketValue(idx int) float64 {
	lo := histMin * math.Pow(10, float64(idx)/histPerDecade)
	hi := histMin * math.Pow(10, float64(idx+1)/histPerDecade)
	return math.Sqrt(lo * hi)
}

// Record adds one value. Negative values are clamped to zero.
func (h *Histogram) Record(v float64) {
	h.count++
	if v <= 0 {
		h.zero++
		return
	}
	h.buckets[bucketOf(v)]++
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count }

// Quantile returns an approximation of the q-quantile (0 < q ≤ 1), or 0
// when empty. Exact zeros sort before every bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		// q→0 must still land on a recorded value: without the clamp a
		// zero target would satisfy the cumulative test at the first
		// bucket even when that bucket is empty.
		target = 1
	}
	if target <= h.zero {
		return 0
	}
	cum := h.zero
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			return bucketValue(i)
		}
	}
	return bucketValue(histBuckets - 1)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	h.count += other.count
	h.zero += other.zero
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// Zero returns the count of exact-zero (or negative, clamped) samples.
func (h *Histogram) Zero() int64 { return h.zero }

// Delta returns the distribution recorded between prev and h, both
// cumulative snapshots of the same histogram (h later). Windowed views —
// "the p99 of the last minute" — are deltas of cumulative scrapes; a
// negative cell (a reset between scrapes) clamps to zero.
func (h *Histogram) Delta(prev *Histogram) Histogram {
	var out Histogram
	pos := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	out.count = pos(h.count - prev.count)
	out.zero = pos(h.zero - prev.zero)
	for i := range h.buckets {
		out.buckets[i] = pos(h.buckets[i] - prev.buckets[i])
	}
	return out
}

// FractionAtOrBelow returns the fraction of recorded samples at or below v
// (1 on an empty histogram: nothing violates a bound nothing was measured
// against). Bucket resolution applies — a bound inside a bucket counts the
// whole bucket as below it.
func (h *Histogram) FractionAtOrBelow(v float64) float64 {
	if h.count == 0 {
		return 1
	}
	cum := h.zero
	if v > 0 {
		top := bucketOf(v)
		for i := 0; i <= top; i++ {
			cum += h.buckets[i]
		}
	}
	return float64(cum) / float64(h.count)
}

// bucketUpperBound returns the inclusive upper bound — the Prometheus
// "le" — of bucket idx. Every histogram in the system shares one bucket
// ladder, so bounds emitted by one node parse back into the same bucket on
// any other, which is what makes scraped distributions mergeable.
func bucketUpperBound(idx int) float64 {
	return histMin * math.Pow(10, float64(idx+1)/histPerDecade)
}

// ForEachBucket visits the non-empty buckets in ascending index order.
func (h *Histogram) ForEachBucket(fn func(idx int, count int64)) {
	for i, n := range h.buckets {
		if n != 0 {
			fn(i, n)
		}
	}
}

// AddLe books n samples into the bucket whose upper bound is le — the
// inverse of the _bucket exposition, used by federation to rebuild a
// mergeable distribution from scraped cumulative-bucket deltas. A bound at
// or below the histogram floor books the samples as exact zeros; an
// off-ladder bound lands in the nearest bucket.
func (h *Histogram) AddLe(le float64, n int64) {
	h.count += n
	if le <= histMin {
		h.zero += n
		return
	}
	idx := int(math.Round(math.Log10(le/histMin)*histBucketFactor)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx] += n
}
