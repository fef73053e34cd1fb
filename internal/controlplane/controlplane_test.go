package controlplane

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cascade/internal/metrics"
	"cascade/internal/model"
)

func TestMembershipTransitions(t *testing.T) {
	m := NewManager(3)
	if !m.Routable(0) || !m.Routable(2) {
		t.Fatal("fresh manager: all nodes should be routable")
	}
	if m.Routable(3) || m.Routable(-1) {
		t.Fatal("out-of-range IDs must not be routable")
	}

	if !m.StartDrain(1) {
		t.Fatal("StartDrain on an active node should transition")
	}
	if m.StartDrain(1) {
		t.Fatal("StartDrain is not idempotent-true")
	}
	if m.Routable(1) {
		t.Fatal("draining node must leave the routing view")
	}
	if got := m.StateOf(1); got != draining {
		t.Fatalf("state = %v, want draining", got)
	}

	if !m.FinishDrain(1) || m.FinishDrain(1) {
		t.Fatal("FinishDrain should transition exactly once")
	}
	if got := m.StateOf(1); got != Removed {
		t.Fatalf("state = %v, want removed", got)
	}

	if !m.Admit(1) {
		t.Fatal("Admit on a removed node should transition")
	}
	if m.Admit(1) {
		t.Fatal("Admit on an active node should be a no-op")
	}
	if !m.Routable(1) {
		t.Fatal("admitted node should be routable again")
	}
}

func TestEpochBumpsOnEveryTransition(t *testing.T) {
	m := NewManager(2)
	e0 := m.Epoch()
	m.StartDrain(0)
	m.FinishDrain(0)
	m.Admit(0)
	m.SetHealth(1, Down)
	m.SetHealth(1, Down) // unchanged: no bump
	if got, want := m.Epoch(), e0+4; got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
}

func TestHealthGatesRouting(t *testing.T) {
	m := NewManager(2)
	m.SetHealth(0, Suspect)
	if !m.Routable(0) {
		t.Fatal("suspect node must stay routable")
	}
	m.SetHealth(0, Down)
	if m.Routable(0) {
		t.Fatal("down node must not be routable")
	}
	m.SetHealth(0, Healthy)
	if !m.Routable(0) {
		t.Fatal("healthy node must be routable")
	}
}

func TestMembersSortedNonNil(t *testing.T) {
	m := NewManager(4)
	if got := m.Members(draining); got == nil || len(got) != 0 {
		t.Fatalf("Members(draining) = %#v, want non-nil empty", got)
	}
	m.StartDrain(3)
	m.StartDrain(1)
	got := m.Members(draining)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Members(draining) = %v, want [1 3]", got)
	}
}

func TestEventsAndMetrics(t *testing.T) {
	m := NewManager(2)
	var events []Event
	m.SetOnEvent(func(e Event) { events = append(events, e) })
	reg := metrics.NewRegistry()
	m.RegisterMetrics(reg)

	m.StartDrain(0)
	m.FinishDrain(0)
	m.Admit(0)
	m.SetHealth(1, Down)

	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	wantKinds := []EventKind{EventDrain, EventRemove, EventAdmit, EventHealthChange}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cascade_membership_changes_total{event="admit"} 1`,
		`cascade_membership_changes_total{event="drain"} 1`,
		`cascade_membership_changes_total{event="remove"} 1`,
		`cascade_membership_changes_total{event="health"} 1`,
		`cascade_node_health{node="1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestCheckerThresholds(t *testing.T) {
	m := NewManager(1)
	healthy := true
	c := NewChecker(m, CheckerConfig{Probe: func(model.NodeID) bool { return healthy }})

	c.Tick()
	if got := m.HealthOf(0); got != Healthy {
		t.Fatalf("after ok probe: %v, want healthy", got)
	}

	healthy = false
	c.Tick()
	if got := m.HealthOf(0); got != Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", got)
	}
	if !m.Routable(0) {
		t.Fatal("suspect node must stay routable")
	}
	c.Tick()
	if got := m.HealthOf(0); got != Suspect {
		t.Fatalf("after 2 failures: %v, want suspect", got)
	}
	c.Tick()
	if got := m.HealthOf(0); got != Down {
		t.Fatalf("after 3 failures: %v, want down", got)
	}
	if m.Routable(0) {
		t.Fatal("down node must not be routable")
	}

	healthy = true
	c.Tick()
	if got := m.HealthOf(0); got != Down {
		t.Fatalf("after 1 success: %v, want still down", got)
	}
	c.Tick()
	if got := m.HealthOf(0); got != Healthy {
		t.Fatalf("after 2 successes: %v, want healthy", got)
	}
}

// TestAdmitOnlyRemoved: a draining node is not admitted — its drain will
// remove it — and a removed one is, healthy again.
func TestAdmitOnlyRemoved(t *testing.T) {
	m := NewManager(1)
	m.SetHealth(0, Down)
	m.StartDrain(0)
	if m.Admit(0) || m.StateOf(0) != draining {
		t.Fatalf("admit of a draining node: state %v, want draining", m.StateOf(0))
	}
	m.FinishDrain(0)
	if !m.Admit(0) || m.StateOf(0) != Active || m.HealthOf(0) != Healthy {
		t.Fatalf("admit of a removed node: %v, %v; want active, healthy", m.StateOf(0), m.HealthOf(0))
	}
}

// TestStreakConcurrentObserve feeds one node's streak from several
// goroutines at once: every failure counts, so failureThreshold concurrent
// failures leave the node Down, and then successThreshold successes
// restore it.
func TestStreakConcurrentObserve(t *testing.T) {
	m := NewManager(1)
	var s Streak
	var wg sync.WaitGroup
	for g := 0; g < failureThreshold; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Observe(m, 0, false)
		}()
	}
	wg.Wait()
	if got := m.HealthOf(0); got != Down {
		t.Fatalf("after %d concurrent failures: %v, want down", failureThreshold, got)
	}
	if got := s.Observe(m, 0, true); got != Down {
		t.Fatalf("after 1 success: %v, want still down", got)
	}
	if got := s.Observe(m, 0, true); got != Healthy {
		t.Fatalf("after 2 successes: %v, want healthy", got)
	}
}

func TestCheckerSkipsNonActive(t *testing.T) {
	m := NewManager(2)
	m.StartDrain(1)
	probed := make(map[model.NodeID]int)
	c := NewChecker(m, CheckerConfig{Probe: func(id model.NodeID) bool {
		probed[id]++
		return true
	}})
	c.Tick()
	if probed[1] != 0 {
		t.Fatal("draining node should not be probed")
	}
	if probed[0] != 1 {
		t.Fatal("active node should be probed")
	}
}

func TestCheckerRunStops(t *testing.T) {
	m := NewManager(1)
	c := NewChecker(m, CheckerConfig{
		Probe:    func(model.NodeID) bool { return true },
		Interval: time.Millisecond,
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { c.Run(stop); close(done) }()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not stop")
	}
}

func TestEpochGuardWaitsOnlyForOlderEpochs(t *testing.T) {
	g := NewEpochGuard()
	old := g.Enter() // request on the old view

	e := g.Bump()
	newer := g.Enter() // request on the new view; must not block the wait
	if newer != e {
		t.Fatalf("post-bump Enter = %d, want %d", newer, e)
	}

	released := make(chan struct{})
	go func() {
		g.WaitBefore(e)
		close(released)
	}()

	select {
	case <-released:
		t.Fatal("WaitBefore returned while an old-epoch request was in flight")
	case <-time.After(10 * time.Millisecond):
	}

	g.Exit(old)
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("WaitBefore did not return after the old-epoch request exited")
	}
	g.Exit(newer)
}

func TestEpochGuardConcurrent(t *testing.T) {
	g := NewEpochGuard()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				e := g.Enter()
				g.Exit(e)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		e := g.Bump()
		g.WaitBefore(e)
	}
	wg.Wait()
	e := g.Bump()
	done := make(chan struct{})
	go func() { g.WaitBefore(e); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitBefore wedged with no requests in flight")
	}
}

func TestParseHealth(t *testing.T) {
	for name, want := range map[string]Health{"healthy": Healthy, "suspect": Suspect, "down": Down} {
		got, err := ParseHealth(name)
		if err != nil || got != want {
			t.Fatalf("ParseHealth(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseHealth("sideways"); err == nil {
		t.Fatal("ParseHealth should reject unknown states")
	}
}
