// Package analysis provides closed-form approximations that complement the
// trace-driven simulator: independent-reference-model (IRM) predictions of
// cache hit ratios for single caches and cache trees. They serve three
// purposes — sanity-check the simulator (tests compare predictions against
// measurements), give instant what-if answers without a replay, and bound
// what placement can possibly achieve (the static-optimal frontier).
//
// Two classic results are implemented:
//
//   - the static-optimal / LFU steady state: fill the cache with the most
//     popular objects until capacity runs out;
//   - Che's approximation for LRU: object i hits with probability
//     1 − exp(−λ_i·T_C), where the characteristic time T_C solves
//     Σ_i s_i·(1 − exp(−λ_i·T_C)) = C.
//
// Both operate on byte capacities and per-object request rates, exactly
// the quantities the workload generator exposes.
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// Object is one catalog entry for analysis: its request rate and size.
type Object struct {
	Rate float64 // requests per second (λ_i)
	Size int64   // bytes
}

// Prediction is a hit-ratio estimate for one cache.
type Prediction struct {
	HitRatio     float64 // fraction of requests served
	ByteHitRatio float64 // fraction of bytes served
	// PerObject is the per-object hit probability, aligned with the
	// input slice.
	PerObject []float64
}

// StaticOptimal predicts the best achievable single-cache hit ratio under
// the IRM: cache the objects with the highest rate density (rate/size)
// until the byte capacity is exhausted (the fractional knapsack bound; the
// final partially-fitting object is excluded, making this marginally
// conservative).
func StaticOptimal(objs []Object, capacity int64) Prediction {
	idx := make([]int, len(objs))
	for i := range idx {
		idx[i] = i
	}
	sortByDensity(idx, objs)

	p := Prediction{PerObject: make([]float64, len(objs))}
	var totalRate, totalByteRate float64
	for _, o := range objs {
		totalRate += o.Rate
		totalByteRate += o.Rate * float64(o.Size)
	}
	var used int64
	var hitRate, hitByteRate float64
	for _, i := range idx {
		if used+objs[i].Size > capacity {
			continue
		}
		used += objs[i].Size
		p.PerObject[i] = 1
		hitRate += objs[i].Rate
		hitByteRate += objs[i].Rate * float64(objs[i].Size)
	}
	if totalRate > 0 {
		p.HitRatio = hitRate / totalRate
	}
	if totalByteRate > 0 {
		p.ByteHitRatio = hitByteRate / totalByteRate
	}
	return p
}

// CheLRU predicts the steady-state hit ratios of a single LRU cache under
// the IRM using Che's approximation. It returns an error when the
// fixed-point search cannot bracket a solution (e.g. zero capacity).
func CheLRU(objs []Object, capacity int64) (Prediction, error) {
	if capacity <= 0 {
		return Prediction{PerObject: make([]float64, len(objs))}, nil
	}
	var totalSize int64
	for _, o := range objs {
		totalSize += o.Size
	}
	if capacity >= totalSize {
		// Everything fits; every reference after the first hits.
		p := Prediction{HitRatio: 1, ByteHitRatio: 1, PerObject: make([]float64, len(objs))}
		for i := range p.PerObject {
			p.PerObject[i] = 1
		}
		return p, nil
	}

	occupied := func(tc float64) float64 {
		var sum float64
		for _, o := range objs {
			sum += float64(o.Size) * (1 - math.Exp(-o.Rate*tc))
		}
		return sum
	}
	// Bracket T_C: occupied is increasing in tc from 0 to totalSize.
	lo, hi := 0.0, 1.0
	for occupied(hi) < float64(capacity) {
		hi *= 2
		if hi > 1e18 {
			return Prediction{}, fmt.Errorf("analysis: characteristic time out of range")
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-9*hi; iter++ {
		mid := (lo + hi) / 2
		if occupied(mid) < float64(capacity) {
			lo = mid
		} else {
			hi = mid
		}
	}
	tc := (lo + hi) / 2

	p := Prediction{PerObject: make([]float64, len(objs))}
	var totalRate, totalByteRate, hitRate, hitByteRate float64
	for i, o := range objs {
		h := 1 - math.Exp(-o.Rate*tc)
		p.PerObject[i] = h
		totalRate += o.Rate
		totalByteRate += o.Rate * float64(o.Size)
		hitRate += o.Rate * h
		hitByteRate += o.Rate * float64(o.Size) * h
	}
	if totalRate > 0 {
		p.HitRatio = hitRate / totalRate
	}
	if totalByteRate > 0 {
		p.ByteHitRatio = hitByteRate / totalByteRate
	}
	return p, nil
}

// CheLRUTree predicts per-level hit ratios for a full O-ary tree of LRU
// caches with uniformly spread clients, layering Che's approximation: each
// level sees the miss stream of the level below, thinned by the fanout
// aggregation (independence approximation, exact only asymptotically).
// Level 0 is the leaves. The returned slice has one prediction per level.
func CheLRUTree(objs []Object, capacity int64, depth, fanout int, leaves int) ([]Prediction, error) {
	if depth <= 0 || fanout <= 0 || leaves <= 0 {
		return nil, fmt.Errorf("analysis: bad tree shape %d/%d/%d", depth, fanout, leaves)
	}
	// Per-leaf rates: each leaf sees 1/leaves of every object's traffic.
	level := make([]Object, len(objs))
	for i, o := range objs {
		level[i] = Object{Rate: o.Rate / float64(leaves), Size: o.Size}
	}
	var out []Prediction
	nodes := leaves
	for l := 0; l < depth; l++ {
		pred, err := CheLRU(level, capacity)
		if err != nil {
			return nil, err
		}
		out = append(out, pred)
		if l == depth-1 {
			break
		}
		// The parent aggregates `fanout` children's miss streams.
		nodes /= fanout
		if nodes < 1 {
			nodes = 1
		}
		for i := range level {
			level[i].Rate = level[i].Rate * (1 - pred.PerObject[i]) * float64(fanout)
		}
	}
	return out, nil
}

// sortByDensity orders indices by rate density (rate/size) descending,
// with index tie-breaking for determinism.
func sortByDensity(idx []int, objs []Object) {
	sort.Slice(idx, func(a, b int) bool {
		da := objs[idx[a]].Rate / float64(objs[idx[a]].Size)
		db := objs[idx[b]].Rate / float64(objs[idx[b]].Size)
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
}

// treeLatency combines layered per-level hit predictions with the
// hierarchy's uplink delays into an expected mean access latency for an
// average-size object: a request pays each level's uplink with the
// probability it is still unserved when it crosses it.
// levelDelays[i] is the uplink delay of level i, with the final entry the
// root–origin link (as topology.Hierarchy.Describe reports).
func treeLatency(preds []Prediction, levelDelays []float64) (float64, error) {
	if len(preds) != len(levelDelays) {
		return 0, fmt.Errorf("analysis: %d level predictions vs %d delays", len(preds), len(levelDelays))
	}
	// A request crosses the uplink of level l iff every level ≤ l missed.
	latency := 0.0
	pMiss := 1.0
	for l := range preds {
		pMiss *= 1 - preds[l].HitRatio
		latency += pMiss * levelDelays[l]
	}
	return latency, nil
}
