package cascade_test

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cascade"
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

// readResults reads a committed results/ CSV: its header and, per data row,
// the row's label and values.
func readResults(t *testing.T, name string) (header, labels []string, rows [][]float64) {
	t.Helper()
	f, err := os.Open(filepath.Join("results", name))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil || len(recs) < 2 {
		t.Fatalf("%s: %d records, %v", name, len(recs), err)
	}
	for _, rec := range recs[1:] {
		vals := make([]float64, len(rec)-1)
		for i, cell := range rec[1:] {
			if vals[i], err = strconv.ParseFloat(cell, 64); err != nil {
				t.Fatalf("%s at %s: %v", name, rec[0], err)
			}
		}
		labels, rows = append(labels, rec[0]), append(rows, vals)
	}
	return recs[0], labels, rows
}

// column returns the index of a named column among a row's values.
func column(t *testing.T, name string, header []string, col string) int {
	t.Helper()
	for i, h := range header[1:] {
		if h == col {
			return i
		}
	}
	t.Fatalf("%s: no %q column in %v", name, col, header)
	return -1
}

// TestCommittedStudiesHoldClaims holds the committed study tables to what
// EXPERIMENTS.md ticks of them: COORD's gain over LRU is positive and grows
// with the Zipf exponent; COORD beats MODULO, which beats LRU, at every
// locality; COORD's gain stays within [0.15, 0.18] across the tree's delay
// growth; latency falls as coordinated participation rises; and the
// frequency window K moves latency by under 3 %.
func TestCommittedStudiesHoldClaims(t *testing.T) {
	header, labels, rows := readResults(t, "zipf.csv")
	gain := column(t, "zipf.csv", header, "COORD gain")
	for i, r := range rows {
		if r[gain] <= 0 || i > 0 && r[gain] <= rows[i-1][gain] {
			t.Errorf("zipf.csv at theta %s: COORD gain %v, not positive and above the row before", labels[i], r[gain])
		}
	}

	header, labels, rows = readResults(t, "locality.csv")
	lru, mod, crd := column(t, "locality.csv", header, "LRU lat"), column(t, "locality.csv", header, "MODULO lat"), column(t, "locality.csv", header, "COORD lat")
	for i, r := range rows {
		if !(r[crd] < r[mod] && r[mod] < r[lru]) {
			t.Errorf("locality.csv at %s: latency COORD %v, MODULO %v, LRU %v; want them in rising order", labels[i], r[crd], r[mod], r[lru])
		}
	}

	header, labels, rows = readResults(t, "treeshape.csv")
	gain = column(t, "treeshape.csv", header, "COORD gain")
	for i, r := range rows {
		if r[gain] < 0.15 || r[gain] > 0.18 {
			t.Errorf("treeshape.csv at %s: COORD gain %v outside [0.15, 0.18]", labels[i], r[gain])
		}
	}

	header, labels, rows = readResults(t, "partial.csv")
	lat := column(t, "partial.csv", header, "latency (s)")
	for i := 1; i < len(rows); i++ {
		if rows[i][lat] >= rows[i-1][lat] {
			t.Errorf("partial.csv at %s: latency %v not below %v at %s", labels[i], rows[i][lat], rows[i-1][lat], labels[i-1])
		}
	}

	header, _, rows = readResults(t, "windowk.csv")
	lat = column(t, "windowk.csv", header, "latency (s)")
	lo, hi := rows[0][lat], rows[0][lat]
	for _, r := range rows {
		lo, hi = min(lo, r[lat]), max(hi, r[lat])
	}
	if spread := (hi - lo) / lo; spread >= 0.03 {
		t.Errorf("windowk.csv: latency spreads %.2f%% across K, not under 3%%", spread*100)
	}
}

// TestStudyTableMatchesResults: every study in -exp all has its committed
// CSV (one per architecture when it runs on each), and every committed CSV
// is a figure's or a study's.
func TestStudyTableMatchesResults(t *testing.T) {
	want := map[string]bool{}
	for _, f := range cascade.Figures() {
		want[f.ID+".csv"] = true
	}
	for _, st := range cascade.Studies() {
		if !st.InAll {
			continue
		}
		for _, a := range []cascade.Architecture{cascade.ArchEnRoute, cascade.ArchHierarchy} {
			want[st.Stem(a)+".csv"] = true
		}
	}
	if len(want) != 30 {
		t.Errorf("the figures and the studies in all name %d CSVs, want 30", len(want))
	}
	committed, err := filepath.Glob(filepath.Join("results", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, p := range committed {
		have[filepath.Base(p)] = true
		if !want[filepath.Base(p)] {
			t.Errorf("%s is neither a figure's nor a study's", p)
		}
	}
	for name := range want {
		if !have[name] {
			t.Errorf("results/%s is not committed", name)
		}
	}
}
