package scheme

import (
	"fmt"

	"cascade/internal/model"
)

// Checker wraps a Scheme and verifies per-request protocol invariants that
// every cascaded caching scheme must uphold, independent of policy:
//
//  1. the reported hit index is within [0, OriginIndex];
//  2. a request is served by the lowest-level cache holding the object
//     (cascaded lookup semantics): the scheme must not report a hit above
//     a cache that the checker knows holds the object, nor report a hit at
//     a cache that never received a copy;
//  3. placements only happen strictly below the serving node, at most once
//     per node, and only at nodes that did not already hold the object;
//  4. a placement at a node makes an immediate repeat request hit at or
//     below that node.
//
// The checker maintains its own model of cache contents from outcomes
// (insertions observed via Placed; evictions are unknown, so holdings are
// treated as upper bounds where needed). It panics on violation — it is a
// test harness, not production middleware.
type Checker struct {
	inner Scheme
	// holds tracks, per node, objects the checker believes may be
	// cached there (insertions seen; evictions unknowable).
	holds map[model.NodeID]map[model.ObjectID]bool
	// requests counts Process calls, for error messages.
	requests int64
}

// NewChecker wraps a scheme with invariant checking.
func NewChecker(inner Scheme) *Checker {
	return &Checker{inner: inner}
}

// Name implements Scheme.
func (c *Checker) Name() string { return c.inner.Name() + "+check" }

// Configure implements Scheme.
func (c *Checker) Configure(budgets map[model.NodeID]NodeBudget) {
	c.inner.Configure(budgets)
	c.holds = make(map[model.NodeID]map[model.ObjectID]bool, len(budgets))
	for n := range budgets {
		c.holds[n] = make(map[model.ObjectID]bool)
	}
}

// Process implements Scheme, delegating and then checking.
func (c *Checker) Process(now float64, obj model.ObjectID, size int64, path Path) Outcome {
	c.requests++
	out := c.inner.Process(now, obj, size, path)

	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("scheme checker: request %d (%s, obj %d): %s",
			c.requests, c.inner.Name(), obj, fmt.Sprintf(format, args...)))
	}

	if out.HitIndex < 0 || out.HitIndex > path.OriginIndex() {
		fail("hit index %d outside [0, %d]", out.HitIndex, path.OriginIndex())
	}
	// (2a) A cache hit must be at a node the checker has seen receive a
	// copy (the copy may have been evicted — but then the scheme itself
	// would not report a hit; seeing a hit at a never-inserted node is
	// always a bug).
	if out.HitIndex < path.OriginIndex() {
		n := path.Nodes[out.HitIndex]
		if !c.holds[n][obj] {
			fail("hit at node %d which never received a copy", n)
		}
	}
	// (3) Placement constraints.
	seen := map[int]bool{}
	for _, idx := range out.Placed {
		if idx < 0 || idx >= path.OriginIndex() {
			fail("placement index %d out of range", idx)
		}
		if idx >= out.HitIndex {
			fail("placement at %d not strictly below the serving node %d", idx, out.HitIndex)
		}
		if seen[idx] {
			fail("duplicate placement at %d", idx)
		}
		seen[idx] = true
		c.holds[path.Nodes[idx]][obj] = true
	}
	if out.HitIndex < path.OriginIndex() {
		// The serving node evidently still holds the object.
		c.holds[path.Nodes[out.HitIndex]][obj] = true
	}
	return out
}

// Requests returns the number of checked requests.
func (c *Checker) Requests() int64 { return c.requests }
