// Hierarchical reproduces the paper's §4.2 setting: a depth-4, fanout-3
// cache tree with exponentially growing uplink delays, comparing all four
// schemes — including the MODULO pathology where any radius above 1 leaves
// whole tree levels unused.
//
//	go run ./examples/hierarchical
package main

import (
	"fmt"
	"os"

	"cascade"
)

func main() {
	cfg := cascade.ExperimentConfig{
		Trace: cascade.TraceConfig{
			Objects:  8000,
			Servers:  150,
			Clients:  800,
			Requests: 150000,
			Duration: 8 * 3600,
			Seed:     7,
		},
		Tree:       cascade.DefaultTreeConfig(), // depth 4, fanout 3, d=8ms, g=5
		CacheSizes: []float64{0.003, 0.01, 0.03, 0.1},
		Schemes:    []string{"LRU", "MODULO(4)", "LNC-R", "COORD"},
	}

	sweep, err := cascade.RunSweep(cascade.ArchHierarchy, cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, id := range []string{"fig9a", "fig9b", "fig10a", "fig10b"} {
		fig, _ := cascade.FigureByID(id)
		if err := sweep.Project(fig).Format(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	// The §4.2 radius observation: in the hierarchy, MODULO(1) ≡ LRU is
	// the best MODULO can do; radius 4 uses only the leaf caches.
	for _, st := range cascade.Studies() {
		if st.Name != "radius" {
			continue
		}
		radius, err := st.Run(cascade.ArchHierarchy, cfg, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		radius.Format(os.Stdout)
	}
	fmt.Println("\n(radius 1 wins: larger radii leave levels 1..3 of the tree unused)")
}
