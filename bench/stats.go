package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of v and returns its middle value (mean of the two
// middle values for even lengths). Empty input reads 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// sample is one completed closed-loop operation (or, for the in-process
// workloads, one fixed-size batch of operations timed as a unit).
type sample struct {
	end   int64 // ns since the window opened
	lat   int64 // ns
	ops   int32 // operations covered (1 for gateway requests)
	bytes int64 // payload bytes delivered
	write bool
	from  int8 // serving hop: 0..2, servedOrigin, or servedUnknown
}

const (
	servedUnknown int8 = -1
	servedOrigin  int8 = 3
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics. Empty input reads 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// windowStats is the steady view of a measured window. The window is cut
// into equal slices and each number is the quiet quartile over the slices:
// the upper quartile of per-slice rates, the lower quartile of per-slice
// latency percentiles. Interference on a shared sandbox only ever slows a
// slice — the reference box loses 10–20 % of a core for seconds at a time —
// so the quiet quartile reads the program's own speed as long as a quarter
// of the window ran undisturbed, where a median needs half.
type windowStats struct {
	throughput float64 // operations per second
	payloadMBs float64 // payload megabytes per second
	readP50us  float64
	readP95us  float64
	writeP50us float64
	writeP95us float64
	readP99us  float64 // whole window, no slicing: the far tail needs every sample
	readP999us float64
}

// slices is how many equal parts a window is cut into (half a second each
// at the contract's run length).
const slices = 24

// summarize folds every user's samples into windowStats. window is the
// nominal measured duration; operations finishing after it (each user's last
// in-flight one) belong to no slice.
func summarize(perUser [][]sample, window int64) windowStats {
	type bucket struct {
		ops        int64
		bytes      int64
		read, wrte []float64
	}
	var b [slices]bucket
	var allReads []float64
	var whole bucket // every sample, for a window too short to slice
	var lastEnd int64
	width := window / slices
	if width <= 0 {
		width = 1
	}
	for _, us := range perUser {
		for _, s := range us {
			perOp := float64(s.lat) / float64(s.ops) / 1e3
			if !s.write {
				allReads = append(allReads, perOp)
			}
			whole.ops += int64(s.ops)
			whole.bytes += s.bytes
			if s.end > lastEnd {
				lastEnd = s.end
			}
			i := s.end / width
			if i >= slices {
				continue
			}
			b[i].ops += int64(s.ops)
			b[i].bytes += s.bytes
			if s.write {
				b[i].wrte = append(b[i].wrte, perOp)
			} else {
				b[i].read = append(b[i].read, perOp)
			}
		}
	}
	var thr, pay, r50, r95, w50, w95 []float64
	secs := float64(width) / 1e9
	for i := range b {
		if b[i].ops == 0 {
			continue
		}
		thr = append(thr, float64(b[i].ops)/secs)
		pay = append(pay, float64(b[i].bytes)/secs/1e6)
		if len(b[i].read) > 0 {
			sort.Float64s(b[i].read)
			r50 = append(r50, percentile(b[i].read, 0.50))
			r95 = append(r95, percentile(b[i].read, 0.95))
		}
		if len(b[i].wrte) > 0 {
			sort.Float64s(b[i].wrte)
			w50 = append(w50, percentile(b[i].wrte, 0.50))
			w95 = append(w95, percentile(b[i].wrte, 0.95))
		}
	}
	sort.Float64s(allReads)
	if len(thr) == 0 && lastEnd > 0 {
		// No operation finished inside the window (a 1/200-scale run of
		// 1 MiB objects under the race detector): report the run as one
		// slice rather than nothing.
		secs := float64(lastEnd) / 1e9
		thr = []float64{float64(whole.ops) / secs}
		pay = []float64{float64(whole.bytes) / secs / 1e6}
		r50 = []float64{percentile(allReads, 0.50)}
		r95 = []float64{percentile(allReads, 0.95)}
	}
	return windowStats{
		throughput: quantile(thr, 0.75),
		payloadMBs: quantile(pay, 0.75),
		readP50us:  quantile(r50, 0.25),
		readP95us:  quantile(r95, 0.25),
		writeP50us: quantile(w50, 0.25),
		writeP95us: quantile(w95, 0.25),
		readP99us:  percentile(allReads, 0.99),
		readP999us: percentile(allReads, 0.999),
	}
}
