package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cascade/internal/model"
)

func newTestTiered(t *testing.T, cfg Config) *Tiered {
	t.Helper()
	ts, err := NewTiered(cfg)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	return ts
}

func TestMemoryOnlyLifecycle(t *testing.T) {
	ts := newTestTiered(t, Config{})
	body := SyntheticBody(7, 512)
	ts.Put(7, body, Meta{ETag: `"x"`, Fetched: 1})

	got, meta, src := ts.Get(7)
	if src != SrcMemory || !bytes.Equal(got, body) || meta.ETag != `"x"` {
		t.Fatalf("Get = %v src=%d", meta, src)
	}
	if s := ts.Stats(); s.MemObjects != 1 || s.MemBytes != 512 {
		t.Fatalf("stats = %+v", s)
	}

	// Without a disk tier a spill is a counted drop.
	if ts.Spill(7) {
		t.Fatal("spill without disk tier reported success")
	}
	if _, _, src := ts.Get(7); src != SrcNone {
		t.Fatalf("object survived diskless spill, src=%d", src)
	}
	if s := ts.Stats(); s.SpillDrops != 1 || s.MemBytes != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSpillPromoteRoundTrip(t *testing.T) {
	now := 0.0
	ts := newTestTiered(t, Config{Dir: t.TempDir(), Clock: func() float64 { return now }})
	body := SyntheticBody(42, 2048)
	ts.Put(42, body, Meta{ETag: `"e42"`, Fetched: 3.5})

	if !ts.Spill(42) {
		t.Fatal("spill failed")
	}
	if src := ts.Contains(42); src != SrcDisk {
		t.Fatalf("Contains after spill = %d", src)
	}
	got, meta, src := ts.Get(42)
	if src != SrcDisk {
		t.Fatalf("Get src = %d", src)
	}
	if !bytes.Equal(got, body) || meta.ETag != `"e42"` || meta.Fetched != 3.5 {
		t.Fatalf("disk round-trip lost data: meta=%+v", meta)
	}

	ts.Admit(42, got, meta, true, func() bool { return true })
	if src := ts.Contains(42); src != SrcMemory {
		t.Fatalf("Contains after promote = %d", src)
	}
	s := ts.Stats()
	if s.SpillObjectsTotal != 1 || s.SpillBytesTotal != 2048 || s.Promotions != 1 || s.DiskHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.DiskObjects != 0 || s.DiskBytes != 0 {
		t.Fatalf("promote left disk residue: %+v", s)
	}
}

// TestAdmitAndDeleteUnlessAskUnderTheLock: bytes land only when the
// descriptor did, and a stale demotion's delete spares a resident object.
func TestAdmitAndDeleteUnlessAskUnderTheLock(t *testing.T) {
	ts := newTestTiered(t, Config{Dir: t.TempDir()})
	ts.Admit(3, SyntheticBody(3, 512), Meta{}, false, func() bool { return false })
	if src := ts.Contains(3); src != SrcNone {
		t.Fatalf("declined admission stored bytes, src=%d", src)
	}
	ts.Admit(3, SyntheticBody(3, 512), Meta{}, false, func() bool { return true })
	if s := ts.Stats(); s.MemObjects != 1 || s.MemBytes != 512 || s.Promotions != 0 {
		t.Fatalf("stats = %+v", s)
	}
	resident := func(model.ObjectID) bool { return true }
	if ts.DeleteUnless(3, resident); ts.Contains(3) != SrcMemory {
		t.Fatal("DeleteUnless dropped a resident object's bytes")
	}
	if ts.DeleteUnless(3, func(model.ObjectID) bool { return false }); ts.Contains(3) != SrcNone {
		t.Fatal("DeleteUnless kept a demoted object's bytes")
	}
}

// Corrupt file on read: CRC mismatch must surface as a counted miss, never
// as garbage bytes.
func TestCorruptDiskReadIsCountedMiss(t *testing.T) {
	dir := t.TempDir()
	ts := newTestTiered(t, Config{Dir: dir})
	ts.Put(9, SyntheticBody(9, 1024), Meta{ETag: `"e"`})
	if !ts.Spill(9) {
		t.Fatal("spill failed")
	}

	// Flip a body byte behind the store's back.
	path := filepath.Join(dir, objectFileName(9))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, src := ts.Get(9); src != SrcNone {
		t.Fatalf("corrupt read served src=%d", src)
	}
	s := ts.Stats()
	if s.CorruptReads != 1 {
		t.Fatalf("CorruptReads = %d", s.CorruptReads)
	}
	if s.DiskObjects != 0 {
		t.Fatalf("corrupt file not dropped: %+v", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file left on disk")
	}
}

// Partial write + simulated crash: a torn temp file must not become an
// object; the startup scan removes it and adopts only complete files.
func TestTornWriteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ts := newTestTiered(t, Config{Dir: dir})
	ts.Put(1, SyntheticBody(1, 256), Meta{ETag: `"a"`})
	ts.Put(2, SyntheticBody(2, 256), Meta{ETag: `"b"`})
	if !ts.Spill(1) || !ts.Spill(2) {
		t.Fatal("spill failed")
	}

	// Simulate a crash mid-write: a half-written temp file next to the
	// complete objects.
	torn := filepath.Join(dir, objectFileName(3)+".tmp99")
	if err := os.WriteFile(torn, []byte("CBS1 partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh instance over the same directory.
	ts2 := newTestTiered(t, Config{Dir: dir})
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn temp file survived restart scan")
	}
	if _, _, src := ts2.Get(3); src != SrcNone {
		t.Fatal("torn object became visible")
	}
	for _, id := range []model.ObjectID{1, 2} {
		body, _, src := ts2.Get(id)
		if src != SrcDisk || !bytes.Equal(body, SyntheticBody(id, 256)) {
			t.Fatalf("object %d not adopted intact (src=%d)", id, src)
		}
	}
	if s := ts2.Stats(); s.DiskObjects != 2 || s.DiskBytes != 512 {
		t.Fatalf("adopted stats = %+v", s)
	}
}

// A spilled copy whose persisted generation fell below the node's floor must
// not be adopted by a restart scan — a spill can never resurrect a body an
// invalidation already covered.
func TestStaleGenerationRejectedOnAdoption(t *testing.T) {
	dir := t.TempDir()
	ts := newTestTiered(t, Config{Dir: dir})
	ts.Put(11, SyntheticBody(11, 256), Meta{ETag: `"old"`, Gen: 3})
	ts.Put(12, SyntheticBody(12, 256), Meta{ETag: `"cur"`, Gen: 7})
	if !ts.Spill(11) || !ts.Spill(12) {
		t.Fatal("spill failed")
	}

	// "Restart" with a floor that invalidates generation 3 but not 7.
	floor := func(id model.ObjectID) uint64 {
		if id == 11 {
			return 5
		}
		return 0
	}
	ts2 := newTestTiered(t, Config{Dir: dir, MinGen: floor})
	if _, _, src := ts2.Get(11); src != SrcNone {
		t.Fatalf("stale-generation file adopted, src=%d", src)
	}
	if _, err := os.Stat(filepath.Join(dir, objectFileName(11))); !os.IsNotExist(err) {
		t.Fatal("stale-generation file left on disk after scan")
	}
	body, meta, src := ts2.Get(12)
	if src != SrcDisk || !bytes.Equal(body, SyntheticBody(12, 256)) || meta.Gen != 7 {
		t.Fatalf("fresh file not adopted intact: src=%d meta=%+v", src, meta)
	}
	s := ts2.Stats()
	if s.StaleGenDrops != 1 || s.DiskObjects != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// The floor can also move past a copy while it sits on disk (an invalidation
// lands after the spill): the next read must self-heal to a miss.
func TestStaleGenerationRejectedOnRead(t *testing.T) {
	dir := t.TempDir()
	var floor uint64
	ts := newTestTiered(t, Config{Dir: dir, MinGen: func(model.ObjectID) uint64 { return floor }})
	ts.Put(21, SyntheticBody(21, 128), Meta{Gen: 2})
	if !ts.Spill(21) {
		t.Fatal("spill failed")
	}
	if _, _, src := ts.Get(21); src != SrcDisk {
		t.Fatalf("pre-invalidation read src=%d", src)
	}

	floor = 4 // invalidation arrives while the copy is spilled
	if _, _, src := ts.Get(21); src != SrcNone {
		t.Fatalf("stale disk copy served, src=%d", src)
	}
	s := ts.Stats()
	if s.StaleGenDrops != 1 || s.DiskObjects != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if _, err := os.Stat(filepath.Join(dir, objectFileName(21))); !os.IsNotExist(err) {
		t.Fatal("stale file left on disk after read rejection")
	}
}

func TestDiskTTLExpiry(t *testing.T) {
	now := 0.0
	ts := newTestTiered(t, Config{Dir: t.TempDir(), DiskTTL: 10, Clock: func() float64 { return now }})
	ts.Put(5, SyntheticBody(5, 128), Meta{})
	ts.Spill(5)

	now = 5
	if _, _, src := ts.Get(5); src != SrcDisk {
		t.Fatal("fresh copy expired early")
	}
	now = 11
	if _, _, src := ts.Get(5); src != SrcNone {
		t.Fatal("stale copy served")
	}
	if s := ts.Stats(); s.Expired != 1 || s.DiskObjects != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// Sweep path: spill again, expire, sweep explicitly.
	ts.Put(6, SyntheticBody(6, 128), Meta{})
	ts.Spill(6)
	now = 30
	if n := ts.Sweep(now); n != 1 {
		t.Fatalf("Sweep removed %d", n)
	}
}

func TestDiskCapacityEvictsOldest(t *testing.T) {
	now := 0.0
	ts := newTestTiered(t, Config{Dir: t.TempDir(), DiskBytes: 1024, Clock: func() float64 { return now }})
	for id := model.ObjectID(1); id <= 4; id++ {
		ts.Put(id, SyntheticBody(id, 400), Meta{})
		ts.Spill(id)
		now++
	}
	// 4×400 > 1024: the two oldest must be gone, newest two kept.
	if src := ts.Contains(1); src != SrcNone {
		t.Fatal("oldest spill survived capacity eviction")
	}
	if src := ts.Contains(4); src != SrcDisk {
		t.Fatal("newest spill evicted")
	}
	s := ts.Stats()
	if s.DiskBytes > 1024 {
		t.Fatalf("disk over capacity: %+v", s)
	}
	if s.SpillDrops == 0 {
		t.Fatal("capacity evictions not counted as drops")
	}
}

func TestSpillAllAndReset(t *testing.T) {
	ts := newTestTiered(t, Config{Dir: t.TempDir()})
	for id := model.ObjectID(1); id <= 3; id++ {
		ts.Put(id, SyntheticBody(id, 100), Meta{})
	}
	ts.SpillAll()
	s := ts.Stats()
	if s.MemObjects != 0 || s.DiskObjects != 3 {
		t.Fatalf("SpillAll stats = %+v", s)
	}

	ts.Put(9, SyntheticBody(9, 100), Meta{})
	ts.Reset()
	s = ts.Stats()
	if s.MemObjects != 0 || s.MemBytes != 0 {
		t.Fatalf("Reset stats = %+v", s)
	}
	if s.DiskObjects != 3 {
		t.Fatal("Reset touched the disk tier")
	}
}

func TestSyntheticRangeMatchesBody(t *testing.T) {
	full := SyntheticBody(123, 10000)
	cases := [][2]int{{0, 10000}, {0, 1}, {9999, 10000}, {2048, 4096}, {4096, 10000}, {5000, 5000}}
	for _, c := range cases {
		got := SyntheticRange(123, 10000, c[0], c[1])
		if !bytes.Equal(got, full[c[0]:c[1]]) {
			t.Fatalf("SyntheticRange(%d,%d) diverged from SyntheticBody slice", c[0], c[1])
		}
	}
	// Clamping.
	if got := SyntheticRange(123, 100, -5, 200); !bytes.Equal(got, SyntheticBody(123, 100)) {
		t.Fatal("clamped range diverged")
	}
}

func TestSegmentIdentity(t *testing.T) {
	if SegmentCount(10000, 4096) != 3 || SegmentCount(4096, 4096) != 1 || SegmentCount(0, 4096) != 0 {
		t.Fatal("SegmentCount wrong")
	}
	// A peer's numbers: no overflow near MaxInt64, nothing past the cap.
	if SegmentCount(math.MaxInt64, 2) != 0 || SegmentCount(math.MaxInt64, math.MaxInt64) != 1 ||
		SegmentCount(MaxSegments*4096, 4096) != MaxSegments || SegmentCount(MaxSegments*4096+1, 4096) != 0 {
		t.Fatal("SegmentCount overflows or exceeds MaxSegments")
	}
	seen := map[model.ObjectID]bool{}
	for base := model.ObjectID(0); base < 100; base++ {
		for idx := 0; idx < 8; idx++ {
			id := SegmentID(base, idx)
			if id < 0 {
				t.Fatalf("SegmentID(%d,%d) negative", base, idx)
			}
			if seen[id] {
				t.Fatalf("SegmentID collision at (%d,%d)", base, idx)
			}
			seen[id] = true
		}
	}
	// Deterministic across calls (and, by construction, processes).
	if SegmentID(7, 2) != SegmentID(7, 2) {
		t.Fatal("SegmentID not deterministic")
	}
}

func TestBodyHashStable(t *testing.T) {
	h1 := BodyHash(SyntheticBody(55, 777))
	h2 := BodyHash(SyntheticBody(55, 777))
	if h1 != h2 || len(h1) != 64 || !strings.ContainsAny(h1, "0123456789abcdef") {
		t.Fatalf("BodyHash unstable or malformed: %s vs %s", h1, h2)
	}
	if BodyHash(SyntheticBody(56, 777)) == h1 {
		t.Fatal("distinct objects hashed equal")
	}
}
