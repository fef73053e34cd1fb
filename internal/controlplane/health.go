package controlplane

import (
	"sync"
	"time"

	"cascade/internal/model"
)

// CheckerConfig parameterizes an active health checker.
type CheckerConfig struct {
	// Probe reports whether the node answered its health probe. Required.
	Probe func(id model.NodeID) bool
	// FailureThreshold is how many consecutive probe failures mark a node
	// Down (default 3). The first failure already marks it Suspect.
	FailureThreshold int
	// SuccessThreshold is how many consecutive probe successes return a
	// Suspect or Down node to Healthy (default 2).
	SuccessThreshold int
	// Interval is the probe period for Run (default 1s). Tick ignores it.
	Interval time.Duration
}

// Checker is the active health prober: a periodic probe per node with
// consecutive failure/success thresholds (a Streak per node) driving the
// healthy → suspect → down state machine in a Manager. It is the active
// counterpart of the gateways' passive circuit breaker — the breaker
// reacts to real traffic failing, the checker detects sickness before (or
// without) traffic.
//
// Tests drive it deterministically with Tick; deployments start the
// background loop with Run.
type Checker struct {
	cfg     CheckerConfig
	mgr     *Manager
	streaks []Streak
}

// NewChecker returns a checker feeding the manager. The checker probes
// every node the manager knows; nodes not currently Active are skipped (a
// drained node is not sick, it is gone).
func NewChecker(mgr *Manager, cfg CheckerConfig) *Checker {
	return &Checker{cfg: cfg, mgr: mgr, streaks: make([]Streak, mgr.Len())}
}

// Tick probes every Active node once and feeds the outcome to the node's
// Streak; a node that is not Active has its streak forgotten.
func (c *Checker) Tick() {
	for i := range c.streaks {
		id := model.NodeID(i)
		if c.mgr.StateOf(id) != Active {
			c.streaks[i].Reset()
			continue
		}
		c.streaks[i].Observe(c.mgr, id, c.cfg.Probe(id), c.cfg.FailureThreshold, c.cfg.SuccessThreshold)
	}
}

// Run ticks every Interval until stop is closed. Call in a goroutine.
func (c *Checker) Run(stop <-chan struct{}) { Every(c.cfg.Interval, stop, c.Tick) }

// The probe defaults, for the Checker and for every other active prober
// (the gateway's upstream prober): a threshold or an interval ≤ 0 means
// these.
const (
	defaultFailureThreshold = 3
	defaultSuccessThreshold = 2
	defaultInterval         = time.Second
)

// Streak is the probe threshold machine of one node: it counts consecutive
// probe outcomes and walks the node's health in a Manager through
// healthy → suspect → down and back. The Checker keeps one per node, a
// gateway node one for its upstream. Safe for concurrent use.
type Streak struct {
	mu         sync.Mutex
	fails, oks int
}

// Observe feeds one probe outcome for node id into the streak and records
// the health it implies in m: any failure marks a Healthy node Suspect at
// once, failureThreshold consecutive failures mark it Down (default 3),
// successThreshold consecutive successes return it to Healthy (default 2).
// It returns the node's health after the probe.
func (s *Streak) Observe(m *Manager, id model.NodeID, ok bool, failureThreshold, successThreshold int) Health {
	if failureThreshold <= 0 {
		failureThreshold = defaultFailureThreshold
	}
	if successThreshold <= 0 {
		successThreshold = defaultSuccessThreshold
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := m.HealthOf(id)
	if ok {
		s.oks, s.fails = s.oks+1, 0
		if s.oks >= successThreshold {
			h = Healthy
		}
	} else {
		s.fails, s.oks = s.fails+1, 0
		if s.fails >= failureThreshold {
			h = Down
		} else if h == Healthy {
			h = Suspect
		}
	}
	m.SetHealth(id, h)
	return h
}

// Reset forgets the streak's counts.
func (s *Streak) Reset() {
	s.mu.Lock()
	s.fails, s.oks = 0, 0
	s.mu.Unlock()
}

// Every calls tick every interval (default 1s) until stop is closed. Call
// in a goroutine.
func Every(interval time.Duration, stop <-chan struct{}, tick func()) {
	if interval <= 0 {
		interval = defaultInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tick()
		}
	}
}
