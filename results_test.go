package cascade_test

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestCommittedFiguresOrderCoordBest holds the committed figure tables to the
// paper's headline claim where EXPERIMENTS.md ticks it: on every
// lower-is-better metric of Figures 6–9, coordinated caching is strictly the
// best of the four schemes at every cache size. `make reproduce` keeps the
// CSVs from drifting from the code that produces them.
func TestCommittedFiguresOrderCoordBest(t *testing.T) {
	for _, tc := range []struct{ fig, metric string }{
		{"fig6a", "en-route access latency"},
		{"fig6b", "en-route response ratio"},
		{"fig7b", "en-route network traffic"},
		{"fig8a", "en-route hops traveled"},
		{"fig8b", "en-route cache load"},
		{"fig9a", "hierarchical access latency"},
		{"fig9b", "hierarchical response ratio"},
	} {
		fig := tc.fig + " (" + tc.metric + ")"
		f, err := os.Open(filepath.Join("results", tc.fig+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: no data rows", fig)
		}
		coord := -1
		for i, name := range rows[0] {
			if name == "COORD" {
				coord = i
			}
		}
		if coord < 1 {
			t.Fatalf("%s: no COORD column in %v", fig, rows[0])
		}
		for _, row := range rows[1:] {
			best, err := strconv.ParseFloat(row[coord], 64)
			if err != nil {
				t.Fatalf("%s at cache size %s: %v", fig, row[0], err)
			}
			for i := 1; i < len(row); i++ {
				if i == coord {
					continue
				}
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatalf("%s at cache size %s: %v", fig, row[0], err)
				}
				if v <= best {
					t.Errorf("%s at cache size %s: %s = %v is not above COORD = %v",
						fig, row[0], rows[0][i], v, best)
				}
			}
		}
	}
}

// TestCommittedFreshnessFrontier holds the committed freshness tables to
// what EXPERIMENTS.md claims of them: CAS-strict coherency serves no stale
// read at any update rate, and PSI never serves more stale reads than no
// protocol at all.
func TestCommittedFreshnessFrontier(t *testing.T) {
	for _, arch := range []string{"enroute", "hierarchy"} {
		name := "freshness_frontier_" + arch + ".csv"
		f, err := os.Open(filepath.Join("results", name))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: no data rows", name)
		}
		col := map[string]int{}
		for i, h := range rows[0] {
			col[h] = i
		}
		for _, h := range []string{"None stale", "PSI stale", "CAS stale"} {
			if _, ok := col[h]; !ok {
				t.Fatalf("%s: no %q column in %v", name, h, rows[0])
			}
		}
		for _, row := range rows[1:] {
			stale := func(h string) float64 {
				v, err := strconv.ParseFloat(row[col[h]], 64)
				if err != nil {
					t.Fatalf("%s at %s: %v", name, row[0], err)
				}
				return v
			}
			if cas := stale("CAS stale"); cas != 0 {
				t.Errorf("%s at %s: CAS-strict served stale reads (%v)", name, row[0], cas)
			}
			if psi, none := stale("PSI stale"), stale("None stale"); psi > none {
				t.Errorf("%s at %s: PSI stale %v above no protocol's %v", name, row[0], psi, none)
			}
		}
	}
}
