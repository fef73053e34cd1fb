package dcache

import (
	"container/list"

	"cascade/internal/cache"
	"cascade/internal/freq"
	"cascade/internal/model"
)

// LRUStacks is the paper's O(1) d-cache organization (§2.4): descriptors
// are partitioned by their recorded reference count 𝒦 ∈ {1..K}, one LRU
// stack per count. Within a stack the sliding-window estimate
// f = 𝒦/(t − t_𝒦) orders identically to the recency of t_𝒦, so each
// stack's tail is its least-frequent member and the global LFU victim is
// the minimum-estimate tail across the K stacks — found in O(K) = O(1)
// work, with O(1) stack maintenance per access.
type LRUStacks struct {
	capacity int
	entries  map[model.ObjectID]*stackEntry
	stacks   [freq.DefaultK]*list.List // index = reference count − 1; front = most recent window
	recycle  func(*cache.Descriptor)
}

type stackEntry struct {
	desc  *cache.Descriptor
	elem  *list.Element
	stack int
}

// newLRUStacks returns an LRU-stack d-cache holding at most capacity
// descriptors.
func newLRUStacks(capacity int) *LRUStacks {
	if capacity < 0 {
		capacity = 0
	}
	s := &LRUStacks{
		capacity: capacity,
		entries:  make(map[model.ObjectID]*stackEntry),
	}
	for i := range s.stacks {
		s.stacks[i] = list.New()
	}
	return s
}

// Capacity implements DCache.
func (s *LRUStacks) Capacity() int { return s.capacity }

// Len implements DCache.
func (s *LRUStacks) Len() int { return len(s.entries) }

// Get implements DCache.
func (s *LRUStacks) Get(id model.ObjectID) *cache.Descriptor {
	if e, ok := s.entries[id]; ok {
		return e.desc
	}
	return nil
}

// Contains implements DCache.
func (s *LRUStacks) Contains(id model.ObjectID) bool {
	_, ok := s.entries[id]
	return ok
}

// stackIndex returns the stack a descriptor belongs to by reference count.
func stackIndex(d *cache.Descriptor) int {
	c := d.Window.Count()
	if c < 1 {
		c = 1
	}
	if c > freq.DefaultK {
		c = freq.DefaultK
	}
	return c - 1
}

// place pushes an entry to the front of the stack matching its descriptor's
// current reference count.
func (s *LRUStacks) place(e *stackEntry) {
	e.stack = stackIndex(e.desc)
	e.elem = s.stacks[e.stack].PushFront(e)
}

// RecordAccess implements DCache: the access may promote the descriptor to
// the next stack; either way it moves to its stack's front (its window just
// slid forward, making it the freshest member).
func (s *LRUStacks) RecordAccess(id model.ObjectID, now float64) *cache.Descriptor {
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	e.desc.Window.Record(now)
	s.stacks[e.stack].Remove(e.elem)
	s.place(e)
	return e.desc
}

// SetMissPenalty implements DCache. Miss penalties do not affect LFU
// order, so no repositioning happens.
func (s *LRUStacks) SetMissPenalty(id model.ObjectID, m, now float64) bool {
	e, ok := s.entries[id]
	if !ok {
		return false
	}
	e.desc.SetMissPenalty(m)
	return true
}

// Put implements DCache.
func (s *LRUStacks) Put(desc *cache.Descriptor, now float64) bool {
	if s.capacity == 0 {
		return false
	}
	if _, dup := s.entries[desc.ID]; dup {
		return false
	}
	if len(s.entries) >= s.capacity {
		if v := s.evictOne(now).desc; s.recycle != nil {
			s.recycle(v)
		}
	}
	e := &stackEntry{desc: desc}
	s.entries[desc.ID] = e
	s.place(e)
	return true
}

// evictOne removes and returns the entry of the least-frequent descriptor:
// the minimum-estimate tail among the K stacks. The d-cache must not be
// empty.
func (s *LRUStacks) evictOne(now float64) *stackEntry {
	var victim *stackEntry
	best := 0.0
	for _, st := range s.stacks {
		back := st.Back()
		if back == nil {
			continue
		}
		e := back.Value.(*stackEntry)
		f := e.desc.Freq(now)
		if victim == nil || f < best {
			victim, best = e, f
		}
	}
	s.stacks[victim.stack].Remove(victim.elem)
	delete(s.entries, victim.desc.ID)
	return victim
}

// ReuseVictim implements DCache; the victim's stack entry is reused too.
func (s *LRUStacks) ReuseVictim(id model.ObjectID, size int64, k int, m, now float64) bool {
	if _, dup := s.entries[id]; dup || s.capacity == 0 || len(s.entries) < s.capacity {
		return false
	}
	e := s.evictOne(now)
	e.desc.Reset(id, size, k)
	e.desc.Window.Record(now)
	e.desc.SetMissPenalty(m)
	s.entries[id] = e
	s.place(e)
	return true
}

// SetRecycler implements Recycler.
func (s *LRUStacks) SetRecycler(fn func(*cache.Descriptor)) { s.recycle = fn }

// Take implements DCache.
func (s *LRUStacks) Take(id model.ObjectID) *cache.Descriptor {
	e, ok := s.entries[id]
	if !ok {
		return nil
	}
	s.stacks[e.stack].Remove(e.elem)
	delete(s.entries, id)
	return e.desc
}
