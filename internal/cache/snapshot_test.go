package cache

import (
	"math"
	"testing"

	"cascade/internal/model"
)

// badSnapshots are descriptor snapshots no store could have written, keyed
// by what is wrong with them. A negative size drives Used below zero; a NaN
// or infinite penalty or time makes the eviction key NaN or infinite, which
// the heap's strict total order cannot hold; decreasing times and a window
// size outside [0, 8] describe a window Record never builds.
func badSnapshots() map[string]DescriptorSnapshot {
	with := func(edit func(*DescriptorSnapshot)) DescriptorSnapshot {
		s := DescriptorSnapshot{ID: 1, Size: 100, MissPenalty: 2, AccessTimes: []float64{1, 2, 3}, WindowK: 3}
		edit(&s)
		return s
	}
	nan, inf := math.NaN(), math.Inf(1)
	return map[string]DescriptorSnapshot{
		"negative size":       with(func(s *DescriptorSnapshot) { s.Size = -1000 }),
		"NaN penalty":         with(func(s *DescriptorSnapshot) { s.MissPenalty = nan }),
		"infinite penalty":    with(func(s *DescriptorSnapshot) { s.MissPenalty = inf }),
		"negative penalty":    with(func(s *DescriptorSnapshot) { s.MissPenalty = -2 }),
		"NaN time":            with(func(s *DescriptorSnapshot) { s.AccessTimes = []float64{1, nan, 3} }),
		"infinite time":       with(func(s *DescriptorSnapshot) { s.AccessTimes = []float64{1, 2, inf} }),
		"minus infinite time": with(func(s *DescriptorSnapshot) { s.AccessTimes = []float64{-inf, 2, 3} }),
		"decreasing times":    with(func(s *DescriptorSnapshot) { s.AccessTimes = []float64{3, 2, 1} }),
		"window above 8":      with(func(s *DescriptorSnapshot) { s.WindowK = 9 }),
		"negative window":     with(func(s *DescriptorSnapshot) { s.WindowK = -1 }),
	}
}

func TestRestoreRefusesInvalidSnapshots(t *testing.T) {
	for name, bad := range badSnapshots() {
		s := NewCostAware(1000)
		if got := s.Restore([]DescriptorSnapshot{bad}, 10); got != 0 || s.Len() != 0 || s.Used() != 0 {
			t.Errorf("%s: restored %d (len %d, used %d); want the snapshot refused", name, got, s.Len(), s.Used())
		}
	}
}

// TestRestoreKeepsStoreConsistent restores bad snapshots between good ones:
// the good ones land, the bad ones do not, and the heap stays a heap.
func TestRestoreKeepsStoreConsistent(t *testing.T) {
	var snaps []DescriptorSnapshot
	id := 1
	for _, bad := range badSnapshots() {
		good := DescriptorSnapshot{ID: model.ObjectID(id), Size: 10, MissPenalty: float64(id % 4), AccessTimes: []float64{float64(id)}}
		bad.ID = model.ObjectID(id + 1)
		snaps = append(snaps, good, bad)
		id += 2
	}
	s := NewCostAware(1000)
	if got, want := s.Restore(snaps, 100), len(snaps)/2; got != want {
		t.Fatalf("restored %d of %d snapshots; want the %d good ones", got, len(snaps), want)
	}
	s.checkInvariants()
	if s.Used() != int64(10*s.Len()) {
		t.Fatalf("used %d for %d ten-byte entries", s.Used(), s.Len())
	}
	if _, ok := s.Insert(mkDesc(999, 1000, 1, 100), 100); !ok {
		t.Fatal("a full-capacity insert after restore failed")
	}
	s.checkInvariants()
}
