package store

import (
	"bytes"
	"testing"

	"cascade/internal/model"
)

// serialRange is the recurrence of synth.go's header run one dependent step
// per byte — the reference the lane-parallel fillLCG must reproduce.
func serialRange(obj model.ObjectID, lo, hi int) []byte {
	s := synthSeed(obj)
	out := make([]byte, 0, hi-lo)
	for i := 0; i < hi; i++ {
		s = s*lcgA + lcgC
		if i >= lo {
			out = append(out, byte(s>>56))
		}
	}
	return out
}

// TestSyntheticGoldenVectors pins the generator's bytes: every incarnation
// compares body hashes across processes, so a change to these is a wire
// break, not a refactor. The hashes were taken from the serial generator.
func TestSyntheticGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"body(7,4099)", SyntheticBody(7, 4099), "e896d803c0d6efe0a4ebd8fdfdfa3018135b5ab4ea9ba03002683fc2f31cf8a4"},
		{"body(0,1)", SyntheticBody(0, 1), "bd4fc42a21f1f860a1030e6eba23d53ecab71bd19297ab6c074381d4ecee0018"},
		{"body(3,13)", SyntheticBody(3, 13), "bc5059b54db0a16bd3ac89283a9fc3f95afe01b0a8ee1d20a29df61ec2f251ae"},
		{"body(123456,262144)", SyntheticBody(123456, 262144), "f2c9fda868ec7a045e4595cb84069bdec85d0615179268d740e87a518fbffa20"},
		{"range(9,1MiB,262147,524291)", SyntheticRange(9, 1<<20, 262147, 524291), "013b4f8c291c2dd4f37c3ca820b943b7ae034d61644efe64cd543c5e5787da1d"},
	}
	for _, c := range cases {
		if got := BodyHash(c.body); got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSyntheticRangeWindows: every [lo, hi) in a 0–40 window around the
// offsets where the lane form changes shape — the start, multiples of eight
// and the end — equals the same slice of the whole body.
func TestSyntheticRangeWindows(t *testing.T) {
	const obj, size = 77, 8*1000 + 5
	full := SyntheticBody(obj, size)
	if !bytes.Equal(full, serialRange(obj, 0, size)) {
		t.Fatal("SyntheticBody diverged from the serial recurrence")
	}
	for _, base := range []int{0, 8*1000 - 3, 8 * 1000, 8*1000 + 3, size - 40} {
		for lo := base; lo <= base+40 && lo <= size; lo++ {
			for hi := lo; hi <= lo+40 && hi <= size; hi++ {
				if got := SyntheticRange(obj, size, lo, hi); !bytes.Equal(got, full[lo:hi]) {
					t.Fatalf("SyntheticRange(%d, %d) diverged from SyntheticBody[%d:%d]", lo, hi, lo, hi)
				}
			}
		}
	}
	// Clamped and empty ranges.
	if got := SyntheticRange(obj, size, -9, size+9); !bytes.Equal(got, full) {
		t.Fatal("clamped range diverged")
	}
	if got := SyntheticRange(obj, size, size-3, size+100); !bytes.Equal(got, full[size-3:]) {
		t.Fatal("range clamped at the end diverged")
	}
	for _, r := range [][2]int{{5, 5}, {9, 2}, {size, size + 8}, {size + 1, size + 2}, {-4, 0}} {
		if got := SyntheticRange(obj, size, r[0], r[1]); got == nil || len(got) != 0 {
			t.Fatalf("SyntheticRange(%d, %d) = %d bytes (nil: %v), want empty non-nil", r[0], r[1], len(got), got == nil)
		}
	}
}

func FuzzSyntheticRange(f *testing.F) {
	f.Add(uint64(9), 1<<20, 262147, 524291)
	f.Add(uint64(0), 1, 0, 1)
	f.Add(uint64(3), 13, 5, 12)
	f.Fuzz(func(t *testing.T, obj uint64, size, lo, hi int) {
		if size < 0 || size > 1<<20 {
			t.Skip()
		}
		cl, ch := max(lo, 0), min(hi, size)
		if ch < cl {
			ch = cl
		}
		got := SyntheticRange(model.ObjectID(obj), size, lo, hi)
		if want := serialRange(model.ObjectID(obj), cl, ch); !bytes.Equal(got, want) {
			t.Fatalf("SyntheticRange(%d, %d, %d, %d): %d bytes diverge from the serial recurrence (%d bytes)", obj, size, lo, hi, len(got), len(want))
		}
	})
}

var benchSink []byte

func BenchmarkSyntheticRange256K(b *testing.B) {
	const seg = 256 << 10
	b.SetBytes(seg)
	for i := 0; i < b.N; i++ {
		benchSink = SyntheticRange(model.ObjectID(i), 1<<20, seg, 2*seg)
	}
}
