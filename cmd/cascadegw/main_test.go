package main

import (
	"testing"

	"cascade"
)

// TestParseBytes pins the sizes cascadegw's -capacity, -spill-max and
// -segment-* flags take; the parser itself is cascade.ParseBytes.
func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"1024":   1024,
		"64KB":   64 << 10,
		"64MB":   64 << 20,
		"2GB":    2 << 30,
		"100B":   100,
		" 8 MB ": 8 << 20,
		"0":      0,
	}
	for in, want := range cases {
		got, err := cascade.ParseBytes(in)
		if err != nil || got != want {
			t.Fatalf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5MB", "12TBx"} {
		if _, err := cascade.ParseBytes(bad); err == nil {
			t.Fatalf("ParseBytes(%q) accepted", bad)
		}
	}
}
