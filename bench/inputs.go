package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"

	"cascade"
	"cascade/internal/store"
	"cascade/internal/trace"
)

// Independent random streams of one -seed. Every stream is the seed pushed
// through a splitmix64 finalizer with its own constant, so neighbouring
// seeds and neighbouring streams share nothing.
const (
	streamCatalog uint64 = iota + 1
	streamWarm
	streamUser0 // user u draws from streamUser0 + u
)

func mixSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) ^ (stream * 0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

const zipfTheta = 0.8

// writeBit marks a gateway operation as an invalidation of the object in
// the low bits.
const writeBit = 1 << 31

// gwOps draws n gateway operations: Zipf(θ) ranks mapped through the
// seed's catalog permutation, a writeRatio share of them flagged as writes.
func gwOps(seed int64, stream uint64, perm []int, n int, writeRatio float64) []uint32 {
	r := rand.New(rand.NewSource(mixSeed(seed, stream)))
	z := trace.NewZipf(r, len(perm), zipfTheta)
	ops := make([]uint32, n)
	for i := range ops {
		ops[i] = uint32(perm[z.Sample()])
		if writeRatio > 0 && r.Float64() < writeRatio {
			ops[i] |= writeBit
		}
	}
	return ops
}

func catalogPerm(seed int64, objects int) []int {
	return rand.New(rand.NewSource(mixSeed(seed, streamCatalog))).Perm(objects)
}

// expected holds what a correct response for each catalog object looks
// like, derived from store.SyntheticBody alone — never from the program
// under test.
type expected struct {
	size int
	etag []string   // the origin's validator: quoted hex FNV-1a-64 of the body
	sha  [][32]byte // full-body fingerprint, compared on 1 response in 64
}

func buildExpected(objects, size int) *expected {
	e := &expected{size: size, etag: make([]string, objects), sha: make([][32]byte, objects)}
	var wg sync.WaitGroup
	for w := 0; w < users; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < objects; id += users {
				body := store.SyntheticBody(cascade.ObjectID(id), size)
				h := fnv.New64a()
				h.Write(body) //nolint:errcheck // hash.Hash never fails
				e.etag[id] = fmt.Sprintf("%q", strconv.FormatUint(h.Sum64(), 16))
				e.sha[id] = sha256.Sum256(body)
			}
		}(w)
	}
	wg.Wait()
	return e
}

// worldSeed fixes everything about the in-process workloads that is not the
// request stream: the catalog (object sizes span five orders of magnitude,
// so which objects are popular decides the byte hit ratio), the popularity
// ranking, the Tiers topology and where clients attach. Were these drawn
// from -seed, two seeds would be two different workloads — byte hit ratios
// from 0.31 to 0.54 in prototype runs — and run-to-run spread would measure
// the seed, not the program. -seed draws the requests.
const worldSeed = 20030305

// worldCatalog is the paper-shaped synthetic catalog: 20,000 objects with
// log-normal sizes on 80 servers, requested by 400 clients.
func worldCatalog() *cascade.Catalog {
	return cascade.NewGenerator(cascade.TraceConfig{Objects: 20000, Servers: 80, Clients: 400, Seed: worldSeed}).Catalog()
}

// requestStream draws requests the way trace.Generator does — Poisson
// arrivals at the default trace's rate, uniform clients, Zipf(θ) ranks
// through a fixed ranking — but from its own seed, which the generator's
// public surface does not allow once the catalog is pinned.
type requestStream struct {
	r    *rand.Rand
	zipf *trace.Zipf
	rank []int
	cat  *cascade.Catalog
	now  float64
}

func newRequestStream(seed int64, cat *cascade.Catalog) *requestStream {
	r := rand.New(rand.NewSource(mixSeed(seed, streamUser0)))
	return &requestStream{
		r:    r,
		zipf: trace.NewZipf(r, len(cat.Objects), zipfTheta),
		rank: rand.New(rand.NewSource(worldSeed)).Perm(len(cat.Objects)),
		cat:  cat,
	}
}

// meanGap is the default trace's inter-arrival time: 400,000 requests a day.
const meanGap = 86400.0 / 400000

func (s *requestStream) next() cascade.Request {
	s.now += s.r.ExpFloat64() * meanGap
	client := s.r.Intn(s.cat.NumClients)
	o := s.cat.Objects[s.rank[s.zipf.Sample()]]
	return cascade.Request{Time: s.now, Client: cascade.ClientID(client), Object: o.ID, Server: o.Server, Size: o.Size}
}
