package engine

import (
	"testing"

	"cascade/internal/model"
	"cascade/internal/store"
)

// TestUpDemotesCopyWithoutBytes: at a hop that keeps bytes, a resident
// descriptor whose bytes went missing is a miss inside the step — demoted
// to the d-cache, so the miss half piggybacks its history — never a hit
// without a body.
func TestUpDemotesCopyWithoutBytes(t *testing.T) {
	tier, err := store.NewTiered(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := Hop{St: NewSharded(ShardedConfig{Node: 1, CacheBytes: 4096, DCacheEntries: 16}), Tier: tier}
	q := Req{Obj: 7, FloorObj: 7, Size: 100, Now: 1}
	if out := Down(h, &q, 0, 0, true, 0, 1, make([]byte, 100), `"v"`); !out.Placed {
		t.Fatal("object not placed")
	}
	var r UpResult
	q.Now = 2
	if Up(h, &q, 0, 1, 0, &r); !r.Hit || len(r.Body) != 100 || r.Meta.ETag != `"v"` {
		t.Fatalf("hit=%v with %d bytes, validator %q; want a hit with the stored body", r.Hit, len(r.Body), r.Meta.ETag)
	}
	tier.DeleteUnless(7, func(model.ObjectID) bool { return false })
	q.Now = 3
	if Up(h, &q, 0, 1, 0, &r); r.Hit || h.St.Contains(7) {
		t.Fatalf("hit=%v, resident=%v: a copy without its bytes must be demoted to a miss", r.Hit, h.St.Contains(7))
	}
	if r.Cand.Tag != TagCandidate {
		t.Fatalf("the miss piggybacked tag %v; the demoted descriptor should make it a candidate", r.Cand.Tag)
	}
	if err := h.CheckBytes(); err != nil {
		t.Fatal(err)
	}
}
