package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cascade"
)

func TestSplitList(t *testing.T) {
	cases := map[string][]string{
		"a,b,c":    {"a", "b", "c"},
		" a , ,b ": {"a", "b"},
		"":         nil,
		"LRU":      {"LRU"},
		"x,,y,":    {"x", "y"},
	}
	for in, want := range cases {
		if got := splitList(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("splitList(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.001, 0.1,1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0.001, 0.1, 1}) {
		t.Fatalf("parseFloats = %v", got)
	}
	if _, err := parseFloats("0.1,zebra"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestArchAllowed(t *testing.T) {
	both := []cascade.Architecture{cascade.ArchEnRoute, cascade.ArchHierarchy}
	if !archAllowed(cascade.ArchEnRoute, both) || !archAllowed(cascade.ArchHierarchy, both) {
		t.Fatal("allowed arch rejected")
	}
	if archAllowed(cascade.ArchEnRoute, []cascade.Architecture{cascade.ArchHierarchy}) {
		t.Fatal("disallowed arch accepted")
	}
}

func TestAllFigureIDsCoverRegistry(t *testing.T) {
	ids := allFigureIDs()
	if len(ids) != len(cascade.Figures()) {
		t.Fatalf("ids = %d, registry = %d", len(ids), len(cascade.Figures()))
	}
	for _, id := range ids {
		if _, ok := cascade.FigureByID(id); !ok {
			t.Fatalf("unknown id %s", id)
		}
	}
}

// TestRunEndToEnd drives the real CLI entry point (flag parsing included)
// at miniature scale: figures, studies, CSV export, markdown and baseline
// comparison.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull

	common := []string{
		"-objects", "200", "-requests", "4000", "-clients", "20",
		"-servers", "10", "-duration", "1200", "-sizes", "0.02",
	}
	invoke := func(extra ...string) error {
		flag.CommandLine = flag.NewFlagSet("cascadesim", flag.PanicOnError)
		os.Args = append(append([]string{"cascadesim"}, common...), extra...)
		return run()
	}

	if err := invoke("-exp", "fig6a,table1,overhead", "-arch", "enroute", "-csv", dir, "-md",
		"-svg", dir, "-html", filepath.Join(dir, "report.html")); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig6a.csv", "fig6a.svg", "table1.csv", "overhead_enroute.csv", "report.html"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("%s not exported: %v", f, err)
		}
	}
	// Baseline comparison against the just-written CSVs: no drift.
	if err := invoke("-exp", "fig6a", "-arch", "enroute", "-baseline", dir); err != nil {
		t.Fatal(err)
	}
	// Different seed drifts → error.
	if err := invoke("-exp", "fig6a", "-arch", "enroute", "-baseline", dir, "-seed", "9"); err == nil {
		t.Fatal("drifted run did not fail")
	}
	// Studies on the hierarchy.
	if err := invoke("-exp", "radius,levels,capacity", "-arch", "hierarchy"); err != nil {
		t.Fatal(err)
	}
	// Replication path.
	if err := invoke("-exp", "fig9a", "-arch", "hierarchy", "-replicate", "2"); err != nil {
		t.Fatal(err)
	}
	// Bad inputs.
	if err := invoke("-exp", "nonsense"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Every study of the table is an -exp name: on a one-request trace each
	// gets past -exp, and fails, if at all, inside its own run.
	for _, st := range cascade.Studies() {
		if err := invoke("-exp", st.Name, "-arch", "enroute", "-objects", "20", "-requests", "1"); err != nil && strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: %v", st.Name, err)
		}
	}
	if err := invoke("-exp", "figures"); err == nil {
		t.Fatal("the retired alias figures accepted")
	}
	if err := invoke("-arch", "moon"); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if err := invoke("-sizes", "zebra"); err == nil {
		t.Fatal("bad sizes accepted")
	}
	if err := invoke("-trace", filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing trace accepted")
	}
}

// TestParallelMatchesSequential asserts the -parallel study runner is
// invisible in the output: the same experiment set must print byte-identical
// results with and without it.
func TestParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()

	capture := func(name string, extra ...string) []byte {
		out, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = out
		flag.CommandLine = flag.NewFlagSet("cascadesim", flag.PanicOnError)
		os.Args = append([]string{"cascadesim",
			"-objects", "200", "-requests", "4000", "-clients", "20",
			"-servers", "10", "-duration", "1200", "-sizes", "0.02",
			"-exp", "radius,zipf,levels", "-arch", "hierarchy"}, extra...)
		runErr := run()
		out.Close()
		os.Stdout = oldStdout
		if runErr != nil {
			t.Fatal(runErr)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	seq := capture("seq.out")
	par := capture("par.out", "-parallel")
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestRunList(t *testing.T) {
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	r, w, _ := os.Pipe()
	os.Stdout = w
	flag.CommandLine = flag.NewFlagSet("cascadesim", flag.PanicOnError)
	os.Args = []string{"cascadesim", "-list"}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	out, _ := io.ReadAll(r)
	for _, want := range []string{"fig6a", "COORD", "studies:"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
	var listed []string
	for _, line := range strings.Split(string(out), "\n") {
		if names, ok := strings.CutPrefix(line, "studies: "); ok {
			listed = strings.Fields(names)
		}
	}
	if !reflect.DeepEqual(listed, studyNames()) || len(listed) != len(cascade.Studies()) {
		t.Fatalf("-list names studies %v, the table %v", listed, studyNames())
	}
	if usage := flag.Lookup("exp").Usage; !strings.Contains(usage, strings.Join(studyNames(), ", ")) {
		t.Fatalf("-exp help text does not name every study: %s", usage)
	}
}

// TestFigureNamedTwiceRunsOnce: a figure ID named twice, or named after
// figs (or all), used to be swept twice, printing its table twice and
// writing its CSV twice.
func TestFigureNamedTwiceRunsOnce(t *testing.T) {
	dir := t.TempDir()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	for i, exp := range []string{"fig6a,fig6a", "figs,fig6a"} {
		name := filepath.Join(dir, strconv.Itoa(i)+".out")
		out, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = out
		flag.CommandLine = flag.NewFlagSet("cascadesim", flag.PanicOnError)
		os.Args = []string{"cascadesim", "-objects", "200", "-requests", "4000", "-clients", "20",
			"-servers", "10", "-duration", "1200", "-sizes", "0.02", "-exp", exp, "-arch", "enroute"}
		runErr := run()
		out.Close()
		os.Stdout = oldStdout
		if runErr != nil {
			t.Fatal(runErr)
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "Figure 6(a)"); n != 1 {
			t.Errorf("-exp %s printed Figure 6(a) %d times, want once", exp, n)
		}
	}
}
