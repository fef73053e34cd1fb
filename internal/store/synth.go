package store

import (
	"crypto/sha256"
	"encoding/hex"

	"cascade/internal/model"
)

// The synthetic payload generator: every incarnation (origin, conformance
// oracle, load generator) derives an object's bytes from its identity with
// the same LCG, so body hashes can be compared across processes without
// shipping the bytes. The recurrence is
//
//	s₀   = obj·2654435761 + 12345
//	sᵢ₊₁ = sᵢ·A + C          (A, C from Knuth's MMIX LCG)
//	bᵢ   = byte(sᵢ₊₁ >> 56)
//
// which must stay bit-for-bit stable: golden vectors in synth_test.go and
// the conformance suite pin it. Run serially, every byte waits on the
// previous byte's multiply. fillLCG instead keeps eight states one step
// apart — lane j holds s₍ⱼ₊₁₎, s₍ⱼ₊₉₎, s₍ⱼ₊₁₇₎, … — and advances each by
// the 8-step map s ↦ A₈·s + C₈, the same affine composition lcgSkip uses
// to fast-forward: the eight multiplies of a round are independent, and
// the bytes come out in the order the serial recurrence emits them.

const (
	lcgA uint64 = 6364136223846793005
	lcgC uint64 = 1442695040888963407
)

// lcgA8, lcgC8 is the LCG step composed with itself eight times.
var lcgA8, lcgC8 = lcgPow(8)

func synthSeed(obj model.ObjectID) uint64 {
	return uint64(obj)*2654435761 + 12345
}

// SyntheticBody returns the deterministic payload for obj at the given size.
func SyntheticBody(obj model.ObjectID, size int) []byte {
	body := make([]byte, size)
	fillLCG(synthSeed(obj), body)
	return body
}

// SyntheticRange returns bytes [lo, hi) of SyntheticBody(obj, size) without
// materialising the prefix: the LCG is fast-forwarded lo steps in O(log lo)
// by lcgSkip.
func SyntheticRange(obj model.ObjectID, size int, lo, hi int) []byte {
	if lo < 0 {
		lo = 0
	}
	if hi > size {
		hi = size
	}
	if hi <= lo {
		return []byte{}
	}
	out := make([]byte, hi-lo)
	fillLCG(lcgSkip(synthSeed(obj), uint64(lo)), out)
	return out
}

// fillLCG writes the len(out) bytes the recurrence emits after state: the
// one generator loop behind SyntheticBody and SyntheticRange.
func fillLCG(state uint64, out []byte) {
	var s [8]uint64
	for j := range s {
		state = state*lcgA + lcgC
		s[j] = state
	}
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	a, c := lcgA8, lcgC8
	for ; len(out) >= 8; out = out[8:] {
		o := out[:8:8]
		o[0], o[1], o[2], o[3] = byte(s0>>56), byte(s1>>56), byte(s2>>56), byte(s3>>56)
		o[4], o[5], o[6], o[7] = byte(s4>>56), byte(s5>>56), byte(s6>>56), byte(s7>>56)
		s0, s1, s2, s3 = s0*a+c, s1*a+c, s2*a+c, s3*a+c
		s4, s5, s6, s7 = s4*a+c, s5*a+c, s6*a+c, s7*a+c
	}
	s = [8]uint64{s0, s1, s2, s3, s4, s5, s6, s7}
	for j := range out {
		out[j] = byte(s[j] >> 56)
	}
}

// lcgPow returns the affine map (a, c) of n LCG steps, by squaring:
// composing s↦As+C with itself yields another affine map, and
// f^(m+n) = (AmAn, AmCn+Cm).
func lcgPow(n uint64) (a, c uint64) {
	a, c = 1, 0 // identity affine map
	curA, curC := lcgA, lcgC
	for n > 0 {
		if n&1 == 1 {
			// acc = cur ∘ acc
			a, c = curA*a, curA*c+curC
		}
		// cur = cur ∘ cur
		curA, curC = curA*curA, curA*curC+curC
		n >>= 1
	}
	return a, c
}

// lcgSkip advances the LCG state n steps.
func lcgSkip(state, n uint64) uint64 {
	a, c := lcgPow(n)
	return a*state + c
}

// BodyHash is the conformance fingerprint of a payload (hex SHA-256).
func BodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// SegmentID derives the placement identity of segment idx of a large base
// object. Each segment is a first-class object to the decision engine —
// its own descriptor, its own placement — so the identity must be
// deterministic across processes and collision-resistant against both base
// ids and other segments. Splitmix-style finalizer over (base, idx); the
// top bit is cleared so the id stays positive under int64 conversions.
func SegmentID(base model.ObjectID, idx int) model.ObjectID {
	h := uint64(base)*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return model.ObjectID(h >> 1)
}

// MaxSegments caps the segments of one large object. A marker's total and
// segment size are a peer's numbers and their quotient is how many
// sub-requests a reassembly issues, so every parser that meets segment
// geometry refuses more than this (64 Ki segments: 16 GiB at the usual
// 256 KiB) and an origin asked to cut finer serves the object whole.
const MaxSegments = 1 << 16

// SegmentCount is the number of segSize segments covering total bytes,
// computed without the total+segSize sum that overflows for totals near
// MaxInt64; 0 for a non-positive argument or a count beyond MaxSegments.
func SegmentCount(total, segSize int64) int {
	if segSize <= 0 || total <= 0 {
		return 0
	}
	if n := (total-1)/segSize + 1; n <= MaxSegments {
		return int(n)
	}
	return 0
}
