package scheme

import (
	"math/rand"
	"testing"

	"cascade/internal/model"
)

// TestAllSchemesSatisfyInvariants drives every scheme through a random
// workload on a shared path family under the invariant checker.
func TestAllSchemesSatisfyInvariants(t *testing.T) {
	nodes := []model.NodeID{0, 1, 2, 3, 4, 5}
	paths := []Path{
		{Nodes: []model.NodeID{0, 1, 2, 3}, UpCost: []float64{1, 2, 3, 4}},
		{Nodes: []model.NodeID{4, 1, 2, 3}, UpCost: []float64{0.5, 2, 3, 4}},
		{Nodes: []model.NodeID{5, 2, 3}, UpCost: []float64{1, 3, 4}},
		{Nodes: []model.NodeID{0}, UpCost: []float64{2}},
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			inner, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			chk := NewChecker(inner)
			if chk.Name() != name+"+check" {
				t.Fatalf("checker name %q", chk.Name())
			}
			chk.Configure(Uniform(nodes, 5000, 50))
			r := rand.New(rand.NewSource(77))
			for i := 0; i < 20000; i++ {
				obj := model.ObjectID(r.Intn(60))
				size := int64(100 + r.Intn(900))
				// Sizes must be stable per object for cache
				// accounting to make sense.
				size = int64(100 + (int(obj)*37)%900)
				now := float64(i) * 3.7
				chk.Process(now, obj, size, paths[r.Intn(len(paths))])
			}
			if chk.Requests() != 20000 {
				t.Fatalf("checked %d requests", chk.Requests())
			}
		})
	}
}

// badScheme deliberately violates invariants to prove the checker catches
// them.
type badScheme struct {
	mode string
}

func (b *badScheme) Name() string                          { return "bad" }
func (b *badScheme) Configure(map[model.NodeID]NodeBudget) {}
func (b *badScheme) Process(_ float64, _ model.ObjectID, _ int64, p Path) Outcome {
	switch b.mode {
	case "hit-out-of-range":
		return Outcome{HitIndex: p.OriginIndex() + 1}
	case "phantom-hit":
		return Outcome{HitIndex: 0}
	case "placement-above-hit":
		return Outcome{HitIndex: 1, Placed: []int{1}}
	case "duplicate-placement":
		return Outcome{HitIndex: p.OriginIndex(), Placed: []int{0, 0}}
	case "placement-out-of-range":
		return Outcome{HitIndex: p.OriginIndex(), Placed: []int{99}}
	}
	return Outcome{HitIndex: p.OriginIndex()}
}

func TestCheckerCatchesViolations(t *testing.T) {
	p := Path{Nodes: []model.NodeID{0, 1, 2}, UpCost: []float64{1, 1, 1}}
	for _, mode := range []string{
		"hit-out-of-range", "phantom-hit", "placement-above-hit",
		"duplicate-placement", "placement-out-of-range",
	} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			chk := NewChecker(&badScheme{mode: mode})
			chk.Configure(Uniform([]model.NodeID{0, 1, 2}, 1000, 0))
			defer func() {
				if recover() == nil {
					t.Fatalf("checker missed violation %q", mode)
				}
			}()
			chk.Process(0, 1, 10, p)
		})
	}
}
