package cache

import (
	"fmt"
	"math"

	"cascade/internal/freq"
	"cascade/internal/model"
)

// DescriptorSnapshot is the serializable state of one descriptor, used by
// gateways to persist warm cache state across restarts.
type DescriptorSnapshot struct {
	ID          model.ObjectID
	Size        int64
	MissPenalty float64
	// Gen is the coherency generation of the copy (see Descriptor.Gen).
	Gen uint64
	// AccessTimes are the recorded reference times, oldest first.
	AccessTimes []float64
	// WindowK is the sliding-window size the descriptor was using.
	WindowK int
}

// Snapshot captures the descriptor's state.
func (d *Descriptor) Snapshot() DescriptorSnapshot {
	return DescriptorSnapshot{
		ID:          d.ID,
		Size:        d.Size,
		MissPenalty: d.missPenalty,
		Gen:         d.Gen,
		AccessTimes: d.Window.Times(),
		WindowK:     d.Window.K(),
	}
}

// validate reports why no descriptor could have produced the snapshot, or
// nil. Snapshots arrive from disk and from peers, so every restore path
// checks: a negative size would drive a store's Used below zero, and a
// NaN or infinite penalty or time an eviction key outside the heap's strict
// total order.
func (s DescriptorSnapshot) validate() error {
	switch {
	case s.Size < 0:
		return fmt.Errorf("cache: snapshot of object %d: negative size %d", s.ID, s.Size)
	case !finite(s.MissPenalty) || s.MissPenalty < 0:
		return fmt.Errorf("cache: snapshot of object %d: miss penalty %v", s.ID, s.MissPenalty)
	case s.WindowK < 0 || s.WindowK > freq.MaxK:
		return fmt.Errorf("cache: snapshot of object %d: window size %d outside [0, %d]", s.ID, s.WindowK, freq.MaxK)
	}
	for i, t := range s.AccessTimes {
		if !finite(t) || (i > 0 && t < s.AccessTimes[i-1]) {
			return fmt.Errorf("cache: snapshot of object %d: access times %v are not finite and non-decreasing", s.ID, s.AccessTimes)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// RestoreDescriptor rebuilds a descriptor from a snapshot. It refuses a
// snapshot no descriptor could have produced: a negative size, a NaN,
// infinite or negative miss penalty, access times that are not finite and
// non-decreasing, or a window size outside [0, freq.MaxK]. The frequency
// estimate is recomputed from the recorded times (and re-ages on first
// use).
func RestoreDescriptor(s DescriptorSnapshot) (*Descriptor, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	d := NewDescriptorK(s.ID, s.Size, s.WindowK)
	for _, t := range s.AccessTimes {
		d.Window.Record(t)
	}
	d.missPenalty = s.MissPenalty
	d.Gen = s.Gen
	return d, nil
}

// Snapshot captures every stored descriptor in ForEach's order, which the
// store's operations alone determine: a snapshot restored into a store too
// small for all of it keeps the same entries in every process.
func (s *HeapStore) Snapshot() []DescriptorSnapshot {
	out := make([]DescriptorSnapshot, 0, len(s.h))
	for i := range s.h {
		out = append(out, s.h[i].d.Snapshot())
	}
	return out
}

// Restore inserts the snapshotted descriptors into the (empty or partially
// filled) store at time now. Invalid snapshots and entries that would not
// fit in the remaining free space are skipped — a warm restore fills the
// cache without churning entries it just restored. It reports how many
// entries were restored.
func (s *HeapStore) Restore(snaps []DescriptorSnapshot, now float64) int {
	restored := 0
	for _, snap := range snaps {
		d, err := RestoreDescriptor(snap)
		if err != nil || s.Capacity()-s.Used() < s.entrySize(d.Size) {
			continue
		}
		if _, ok := s.Insert(d, now); ok {
			restored++
		}
	}
	return restored
}
