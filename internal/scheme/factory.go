package scheme

import (
	"fmt"
	"strconv"
	"strings"
)

// New constructs a scheme from its report name: "LRU", "MODULO(r)" (or
// "MODULO" for the paper's radius 4), "LNC-R", "COORD", "COORD@NN%"
// (partial deployment at NN percent participation), "LFU", "GDS" or
// "LRU-2H". Matching is case-insensitive.
func New(name string) (Scheme, error) {
	n := strings.ToUpper(strings.TrimSpace(name))
	switch {
	case n == "LRU":
		return NewLRU(), nil
	case n == "LNC-R" || n == "LNCR":
		return NewLNCR(), nil
	case n == "COORD" || n == "COORDINATED":
		return NewCoordinated(), nil
	case n == "LFU":
		return newLFU(), nil
	case n == "GDS":
		return newGDS(), nil
	case n == "LRU-2H" || n == "LRU2H":
		return NewLRU2H(), nil
	case n == "MODULO":
		return NewModulo(4), nil
	case strings.HasPrefix(n, "COORD@"):
		pct := strings.TrimSuffix(strings.TrimPrefix(n, "COORD@"), "%")
		v, err := strconv.Atoi(pct)
		if err != nil || v < 0 || v > 100 {
			return nil, fmt.Errorf("scheme: bad participation in %q", name)
		}
		return NewPartial(float64(v)/100, 1), nil
	case strings.HasPrefix(n, "MODULO(") && strings.HasSuffix(n, ")"):
		r, err := strconv.Atoi(n[len("MODULO(") : len(n)-1])
		if err != nil || r < 1 {
			return nil, fmt.Errorf("scheme: bad MODULO radius in %q", name)
		}
		return NewModulo(r), nil
	}
	return nil, fmt.Errorf("scheme: unknown scheme %q", name)
}

// Names lists the canonical scheme names New accepts.
func Names() []string {
	return []string{"LRU", "MODULO(4)", "LNC-R", "COORD", "COORD@50%", "LFU", "GDS", "LRU-2H"}
}
