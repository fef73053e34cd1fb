package main

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepository runs the five checks on the repository itself, so that
// `go test ./...` enforces them as `make lint` does.
func TestRepository(t *testing.T) {
	tr, err := load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fails, summary := tr.check(funcCeilings, maxLines)
	for _, f := range fails {
		t.Error(f)
	}
	t.Log(strings.Join(summary, "; "))
	// A rule whose package was moved or renamed would pass vacuously.
	for _, r := range importRules {
		found := false
		for _, f := range tr.files {
			found = found || f.dir == r.pkg && !f.test
		}
		if !found {
			t.Errorf("the import rule for %s matches no package", r.pkg)
		}
	}
}

// fixture is a small tree that passes every check under fixtureCeilings and
// a size ceiling 50 lines above its total.
func fixture() map[string]string {
	files := map[string]string{
		"go.mod": "module cascade\n",
		"docs/OBSERVABILITY.md": "`cascade_demo_{hits,misses}_total`, `cascade_lat_seconds_bucket`,\n" +
			"`cascade_audit_violations_total{invariant=...}` and the `cascade_audit_*` family.\n",
		"internal/metrics/metrics.go": `package metrics

type R interface{ Counter(string) int; Summary(string) int }

// Register registers the demo series.
func Register(r R) {
	r.Counter("cascade_demo_hits_total")
	r.Counter("cascade_demo_misses_total")
	r.Counter("cascade_audit_violations_total")
	r.Summary("cascade_lat_seconds")
}
`,
		"cascade.go":      "package cascade\n\n// Options is named in Run's signature.\ntype Options struct{}\n\nfunc Run(Options) {}\n",
		"cascade_test.go": "package cascade_test\n\nimport \"cascade\"\n\nvar _ = cascade.Run\n",
		"cmd/demo/main.go": "package main\n\nimport \"cascade/internal/metrics\"\n\nfunc main() { metrics.Register(nil) }\n\nfunc long() {\n" +
			strings.Repeat("\t_ = 0\n", 123) + "}\n",
	}
	for _, r := range importRules {
		files[r.pkg+"/doc.go"] = "package " + path.Base(r.pkg) + "\n"
	}
	return files
}

var fixtureCeilings = map[string]int{"cmd/demo long": 125}

func TestMutationsFail(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(files map[string]string)
		want   string
	}{
		{"none", func(map[string]string) {}, ""},
		{"forbidden import", func(f map[string]string) {
			f["internal/span/span.go"] = "package span\n\nimport _ \"cascade/internal/metrics\"\n"
		}, `internal/span/span.go imports cascade/internal/metrics; span tracing sits below every incarnation (stdlib + model only)`},
		{"engine boundary", func(f map[string]string) {
			f["internal/sim/sim.go"] = "package sim\n\nimport _ \"cascade/internal/core\"\n"
		}, `internal/sim/sim.go imports cascade/internal/core; go through cascade/internal/engine`},
		{"undocumented series", func(f map[string]string) {
			f["internal/metrics/more.go"] = "package metrics\n\nfunc more(r R) { r.Counter(\"cascade_new_total\") }\n"
		}, `internal/metrics/more.go:3: series "cascade_new_total" is registered but not documented in docs/OBSERVABILITY.md`},
		{"documented series not registered", func(f map[string]string) {
			f["docs/OBSERVABILITY.md"] += "`cascade_ghost_total`\n"
		}, `docs/OBSERVABILITY.md:3: series "cascade_ghost_total" is documented but registered nowhere`},
		{"function past its ceiling", func(f map[string]string) {
			f["cmd/demo/main.go"] = strings.Replace(f["cmd/demo/main.go"], "\t_ = 0\n", "\t_ = 0\n\t_ = 1\n", 1)
		}, `cmd/demo long (cmd/demo/main.go) grew to 126 lines past its ceiling of 125`},
		{"total above the ceiling", func(f map[string]string) {
			f["cmd/demo/main.go"] += strings.Repeat("// padding\n", 51)
		}, `non-test lines outside bench/, above the ceiling of`},
		{"exported name nothing reaches", func(f map[string]string) {
			f["internal/metrics/orphan.go"] = "package metrics\n\nfunc Orphan() {}\n"
		}, `internal/metrics/orphan.go:3: internal/metrics Orphan is exported, but nothing outside its package reaches it`},
	}
	base := write(t, fixture())
	tr, err := load(base)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := tr.lines + 50
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			files := fixture()
			c.mutate(files)
			tr, err := load(write(t, files))
			if err != nil {
				t.Fatal(err)
			}
			fails, _ := tr.check(fixtureCeilings, ceiling)
			if c.want == "" {
				if len(fails) > 0 {
					t.Fatalf("the fixture fails: %q", fails)
				}
				return
			}
			if len(fails) != 1 || !strings.Contains(fails[0], c.want) {
				t.Fatalf("got %q, want one failure containing %q", fails, c.want)
			}
		})
	}
}

func write(t *testing.T, files map[string]string) string {
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
