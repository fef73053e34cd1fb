package main

import (
	"fmt"
	"math/rand"
	"testing"

	"cascade"
)

func baseConfig() config {
	return config{
		objects:  100,
		zipfS:    1.2,
		users:    4,
		requests: 100,
	}
}

func TestValidateRejectsDegenerateWorkloads(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config)
	}{
		{"zipf at 1", func(c *config) { c.zipfS = 1 }},
		{"zipf below 1", func(c *config) { c.zipfS = 0.7 }},
		{"zero objects", func(c *config) { c.objects = 0 }},
		{"one object", func(c *config) { c.objects = 1 }},
		{"negative objects", func(c *config) { c.objects = -5 }},
		{"zero requests", func(c *config) { c.requests = 0 }},
		{"zero users", func(c *config) { c.users = 0 }},
		{"negative warmup", func(c *config) { c.warmup = -1 }},
		{"negative rate", func(c *config) { c.rate = -10 }},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mutate(&cfg)
		if err := validate(&cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good := baseConfig()
	if err := validate(&good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Every accepted configuration must construct a real Zipf generator —
	// the nil return is exactly what validate exists to preclude.
	if z := newZipf(rand.New(rand.NewSource(1)), good.zipfS, good.objects); z == nil {
		t.Fatal("newZipf returned nil for a validated config")
	}
}

// draws materializes the first n object IDs of one (seed, stream) workload.
func draws(seed int64, stream uint64, zipfS float64, objects, n int) []uint64 {
	rng := rand.New(rand.NewSource(mixSeed(seed, stream)))
	z := newZipf(rng, zipfS, objects)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

func TestSeedStreamsDeterministicAndDisjoint(t *testing.T) {
	const n = 64
	// Deterministic: the same (seed, stream) replays the same sequence.
	a := draws(1, streamWarmup, 1.2, 5000, n)
	b := draws(1, streamWarmup, 1.2, 5000, n)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same (seed, stream) produced different sequences")
	}

	// Pairwise disjoint: across a spread of seeds and streams no two
	// generators replay each other. The old additive derivation
	// (seed + w + 7919) failed exactly this — worker w of seed s collided
	// with the warmup stream of seed s + w + 7919.
	type src struct {
		seed   int64
		stream uint64
	}
	var srcs []src
	for seed := int64(1); seed <= 4; seed++ {
		srcs = append(srcs, src{seed, streamWarmup}, src{seed, streamOpenLoop})
		for w := uint64(0); w < 4; w++ {
			srcs = append(srcs, src{seed, streamWorker0 + w})
		}
	}
	seqs := make(map[string]src, len(srcs))
	for _, s := range srcs {
		key := fmt.Sprint(draws(s.seed, s.stream, 1.2, 5000, n))
		if prev, dup := seqs[key]; dup {
			t.Fatalf("(seed %d, stream %d) replays (seed %d, stream %d)", s.seed, s.stream, prev.seed, prev.stream)
		}
		seqs[key] = s
	}

	// The regression case from the old derivation, pinned explicitly:
	// worker 0 of seed s must not replay the warmup of seed s+7919.
	warm := draws(1+7919, streamWarmup, 1.2, 5000, n)
	work := draws(1, streamWorker0, 1.2, 5000, n)
	if fmt.Sprint(warm) == fmt.Sprint(work) {
		t.Fatal("worker stream replays a shifted seed's warmup stream")
	}
}

// TestParseBytes pins the sizes cascadeload's -capacity flag takes; the
// parser itself is cascade.ParseBytes.
func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"1024": 1024,
		"4KB":  4 << 10,
		"2MB":  2 << 20,
		"1GB":  1 << 30,
		"512B": 512,
	}
	for in, want := range cases {
		got, err := cascade.ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "abc", "-4KB"} {
		if _, err := cascade.ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}
