package fault

import (
	"testing"
	"time"
)

func TestInjectorDeterministic(t *testing.T) {
	mk := func() *Injector {
		return New(7).WithDrop(0.3).WithDelay(0.2, 5*time.Millisecond)
	}
	a, b := mk(), mk()
	for n := 0; n < 2000; n++ {
		da, db := a.Next(int64(n%5)), b.Next(int64(n%5))
		if da != db {
			t.Fatalf("decision %d diverged: %v vs %v", n, da, db)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Drops == 0 || sa.Delays == 0 {
		t.Fatalf("probabilistic rules never fired: %+v", sa)
	}
}

func TestInjectorCrashOnNth(t *testing.T) {
	i := New(1).WithCrashOn(3, 2)
	if d := i.Next(3); d.Action != actPass {
		t.Fatalf("first message: %v", d.Action)
	}
	if d := i.Next(3); d.Action != ActCrash {
		t.Fatalf("second message: %v", d.Action)
	}
	// One-shot: the schedule does not re-fire.
	if d := i.Next(3); d.Action != actPass {
		t.Fatalf("third message: %v", d.Action)
	}
	if st := i.Stats(); st.Crashes != 1 {
		t.Fatalf("crashes = %d", st.Crashes)
	}
}

func TestInjectorDropEveryAndSaturate(t *testing.T) {
	i := New(1).WithDropEvery(3)
	got := []Action{}
	for n := 0; n < 6; n++ {
		got = append(got, i.Next(0).Action)
	}
	want := []Action{actPass, actPass, ActDrop, actPass, actPass, ActDrop}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("drop-every sequence %v, want %v", got, want)
		}
	}
	i.SetSaturated(9, true)
	if d := i.Next(9); d.Action != ActSaturate {
		t.Fatalf("saturated key: %v", d.Action)
	}
	i.SetSaturated(9, false)
	if d := i.Next(9); d.Action == ActSaturate {
		t.Fatal("saturation not cleared")
	}
}

func TestZeroInjectorPasses(t *testing.T) {
	i := New(0)
	for n := 0; n < 100; n++ {
		if d := i.Next(int64(n)); d.Action != actPass {
			t.Fatalf("zero-rule injector acted: %v", d.Action)
		}
	}
}
