package flightrec

import (
	"encoding/json"
	"strings"
	"testing"

	"cascade/internal/model"
)

func TestRecorderRetainsInOrder(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindSpill, Obj: model.ObjectID(100 + i)})
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Obj != model.ObjectID(100+i) {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Obj: model.ObjectID(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	// The ring keeps the newest events, oldest first, with the global
	// sequence numbering intact — a reader can tell exactly what was lost.
	for i, e := range evs {
		if e.Seq != uint64(6+i) || e.Obj != model.ObjectID(6+i) {
			t.Fatalf("event %d = %+v, want seq %d", i, e, 6+i)
		}
	}
}

func TestRecorderCapacityClamp(t *testing.T) {
	r := New(0)
	r.Record(Event{Obj: 1})
	r.Record(Event{Obj: 2})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Obj != 2 || r.Dropped() != 1 {
		t.Fatalf("clamped ring: events=%v dropped=%d", evs, r.Dropped())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindCrash})
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder reported state")
	}
	s := r.TakeSnapshot(3)
	if s.Node != 3 || s.Capacity != 0 || len(s.Events) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

// The dump encoding spells every kind as its schema name and decodes it
// back to the same event, so a snapshot read from /cascade/debug/flight
// round-trips for each of the eleven kinds.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New(int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		r.Record(Event{Time: 1.5 + float64(k), Node: 2, Kind: k, Obj: 7, Hop: -1, A: 0.25, B: 3, N: int(k)})
	}
	snap := r.TakeSnapshot(2)

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"capacity":11`; !strings.Contains(string(data), want) {
		t.Fatalf("dump missing %s:\n%s", want, data)
	}
	for k := Kind(0); k < numKinds; k++ {
		if want := `"kind":"` + k.String() + `"`; !strings.Contains(string(data), want) {
			t.Fatalf("dump missing %s:\n%s", want, data)
		}
	}

	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(snap.Events) {
		t.Fatalf("round trip kept %d of %d events", len(back.Events), len(snap.Events))
	}
	for i := range snap.Events {
		if back.Events[i] != snap.Events[i] {
			t.Fatalf("round trip changed event %d:\n%+v\n%+v", i, snap.Events[i], back.Events[i])
		}
	}
}

// The ring logs exactly the events no request owns; the per-request protocol
// steps are span attributes (docs/OBSERVABILITY.md maps each retired kind to
// its span phase).
func TestKindNamesComplete(t *testing.T) {
	want := []string{"crash", "recover", "breaker", "audit_violation", "membership",
		"spill", "promote", "health", "invalidate", "stale_hit", "revalidate"}
	if int(numKinds) != len(want) {
		t.Fatalf("%d kinds defined, want %d", numKinds, len(want))
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() != want[k] {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), want[k])
		}
	}
	if numKinds.String() != "unknown" {
		t.Fatalf("out-of-range kind = %q", numKinds.String())
	}
}
