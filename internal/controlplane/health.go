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
	// Interval is the probe period for Run (default 1s). Tick ignores it.
	Interval time.Duration
}

// Checker is the active health prober: a periodic probe per node with
// consecutive failure/success thresholds (a Streak per node) driving the
// healthy → suspect → down state machine in a Manager. A gateway node runs
// the same Streak on its upstream, fed by its prober and by its upstream
// exchanges alike.
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
		c.streaks[i].Observe(c.mgr, id, c.cfg.Probe(id))
	}
}

// Run ticks every Interval until stop is closed. Call in a goroutine.
func (c *Checker) Run(stop <-chan struct{}) { Every(c.cfg.Interval, stop, c.Tick) }

// The health machine's constants, for the Checker and for the gateway's
// upstream slot: failureThreshold consecutive failures mark a node Down,
// successThreshold consecutive successes return it to Healthy, and an
// active prober polls every defaultInterval unless told otherwise.
const (
	failureThreshold = 3
	successThreshold = 2
	defaultInterval  = time.Second
)

// Cooldown is how long, in clock seconds, a gateway whose upstream is Down
// fails fast before it lets one request up as a trial.
const Cooldown = 30.0

// Streak is the threshold machine of one node: it counts consecutive
// outcomes — probes, and at a gateway its upstream exchanges — and walks the
// node's health in a Manager through healthy → suspect → down and back. The
// Checker keeps one per node, a gateway node one for its upstream. Safe for
// concurrent use.
type Streak struct {
	mu         sync.Mutex
	fails, oks int
}

// Observe feeds one outcome for node id into the streak and records the
// health it implies in m: any failure marks a Healthy node Suspect at once,
// failureThreshold consecutive failures mark it Down, successThreshold
// consecutive successes return it to Healthy. It returns the node's health
// after the outcome. A success on a Healthy node takes the streak's lock and
// no other.
func (s *Streak) Observe(m *Manager, id model.NodeID, ok bool) Health {
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
