// Package fault is a deterministic, seedable fault injector for the
// cascaded caching protocol. The cluster runtime consults an Injector at
// every hop delivery of a request's walk, in both passes (keyed by the
// target node), and acts on the verdict inline; the HTTP gateway does not
// consult one. Because every decision derives from a fixed seed plus
// per-key message counters, a chaos scenario is exactly reproducible:
// rerunning with the same seed yields the same schedule of drops, delays,
// crashes and saturation verdicts — and for a serial request stream against
// the cluster, the same results and counters.
//
// The protocol under test is per-request self-contained (any lost message
// leaves caches as they were — docs/PROTOCOL.md), so the injector never
// needs to heal what it breaks; it only has to make the breakage
// repeatable.
package fault

import (
	"math/rand"
	"sync"
	"time"
)

// Action classifies what the injector wants done with one message.
type Action int

const (
	// actPass delivers the message normally.
	actPass Action = iota
	// ActDrop loses the message: the cluster runtime abandons the request's
	// walk where it stands and serves the client origin-direct.
	ActDrop
	// ActDelay delivers the message after Decision.Delay (the cluster
	// runtime waits it out inline, giving up if the request's context ends
	// first).
	ActDelay
	// ActCrash crashes the target node before delivery (the runtime maps
	// this to Cluster.Fail).
	ActCrash
	// ActSaturate makes the target look saturated/unresponsive: the
	// delivery fails visibly and the request routes around the node.
	ActSaturate
)

// String names the action for logs and test failures.
func (a Action) String() string {
	switch a {
	case actPass:
		return "pass"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActCrash:
		return "crash"
	case ActSaturate:
		return "saturate"
	}
	return "unknown"
}

// Decision is the injector's verdict for one message.
type Decision struct {
	Action Action
	// Delay is meaningful only for ActDelay.
	Delay time.Duration
}

// Stats counts what the injector has done so far.
type Stats struct {
	Messages  int64 // decisions issued
	Drops     int64
	Delays    int64
	Crashes   int64
	Saturated int64
}

// Injector decides the fate of messages. Rules compose: crash-on-nth is
// checked first (it is a one-shot schedule), then saturation, then the
// deterministic drop-every-k cycle, then the seeded probabilistic drop and
// delay rules. The zero value passes everything; configure with the
// With… builders (not safe concurrently with Next — build first, inject
// after, except SetSaturated which is safe at any time).
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand

	dropP  float64
	delayP float64
	delay  time.Duration

	dropEvery int64           // every k-th message globally (0 = off)
	crashOn   map[int64]int64 // key → crash when its n-th message arrives
	saturated map[int64]bool

	seen  map[int64]int64 // per-key message counter
	total int64
	stats Stats
}

// New returns an injector whose probabilistic rules draw from the given
// seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:       rand.New(rand.NewSource(seed)),
		crashOn:   make(map[int64]int64),
		saturated: make(map[int64]bool),
		seen:      make(map[int64]int64),
	}
}

// WithDrop loses each message with probability p.
func (i *Injector) WithDrop(p float64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dropP = p
	return i
}

// WithDelay delays each message with probability p by d.
func (i *Injector) WithDelay(p float64, d time.Duration) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.delayP, i.delay = p, d
	return i
}

// WithDropEvery loses every k-th message (counted across all keys) — a
// fully deterministic loss pattern independent of the seed.
func (i *Injector) WithDropEvery(k int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dropEvery = k
	return i
}

// WithCrashOn crashes the node identified by key when its nth message
// (1-based) arrives.
func (i *Injector) WithCrashOn(key, nth int64) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashOn[key] = nth
	return i
}

// SetSaturated marks or clears a key as saturated: sends to it fail
// visibly until cleared. Safe to call while injection is running.
func (i *Injector) SetSaturated(key int64, on bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if on {
		i.saturated[key] = true
	} else {
		delete(i.saturated, key)
	}
}

// Next issues the verdict for the next message addressed to key.
func (i *Injector) Next(key int64) Decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.total++
	i.seen[key]++
	i.stats.Messages++

	if nth, ok := i.crashOn[key]; ok && i.seen[key] >= nth {
		delete(i.crashOn, key) // one-shot
		i.stats.Crashes++
		return Decision{Action: ActCrash}
	}
	if i.saturated[key] {
		i.stats.Saturated++
		return Decision{Action: ActSaturate}
	}
	if i.dropEvery > 0 && i.total%i.dropEvery == 0 {
		i.stats.Drops++
		return Decision{Action: ActDrop}
	}
	if i.dropP > 0 && i.rng.Float64() < i.dropP {
		i.stats.Drops++
		return Decision{Action: ActDrop}
	}
	if i.delayP > 0 && i.rng.Float64() < i.delayP {
		i.stats.Delays++
		return Decision{Action: ActDelay, Delay: i.delay}
	}
	return Decision{Action: actPass}
}

// Stats snapshots the injection counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}
