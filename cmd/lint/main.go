// Command lint checks the repository's design rules in one pass over its Go
// files: the import boundaries of importRules; the series the code
// registers against the names docs/OBSERVABILITY.md gives, both ways;
// function length against maxFuncLines and funcCeilings; `make loc`'s total
// (non-test Go lines outside bench/) against maxLines; and that each
// exported name is reached (checkReach). funcCeilings only shrinks.
//
// Usage: go run ./cmd/lint [root] (make lint). Exit status 1 and one line
// per violation when a rule fails, 2 when the tree cannot be read.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

const module = "cascade" // the root module's import path

// importRule constrains the non-test files of one package directory: an
// import violates it when deny lists it, or when allow is set and the
// import is a module package allow does not list. The incarnations reach
// internal/core only through internal/engine, so none re-derives a protocol
// step; the packages below them import little, so that the auditor, an
// independent oracle, shares no bug with the code it checks.
type importRule struct {
	pkg, reason string
	deny, allow []string
}

const (
	viaEngine = "go through cascade/internal/engine"
	core      = "cascade/internal/core"
	model     = "cascade/internal/model"
	metrics   = "cascade/internal/metrics"
)

var importRules = []importRule{
	{"internal/scheme", viaEngine, []string{core}, nil},
	{"internal/sim", viaEngine, []string{core}, nil},
	{"internal/runtime", viaEngine, []string{core}, nil},
	{"internal/httpgw", viaEngine, []string{core}, nil},
	{"internal/audit", "the auditor is an independent oracle (stdlib + model + metrics only)", nil, []string{model, metrics}},
	{"internal/controlplane", "the control plane sits below every incarnation (stdlib + model + metrics + topology only)", nil, []string{model, metrics, "cascade/internal/topology"}},
	{"internal/store", "the body store sits below every incarnation (stdlib + model + metrics only)", nil, []string{model, metrics}},
	{"internal/coherency", "the coherency substrate sits below every incarnation (stdlib + model + metrics only)", nil, []string{model, metrics}},
	{"internal/span", "span tracing sits below every incarnation (stdlib + model only)", nil, []string{model}},
	{"internal/obs/federate", "the federator observes from outside (stdlib + model + metrics + controlplane only)", nil, []string{model, metrics, "cascade/internal/controlplane"}},
}

// maxFuncLines is the longest a function may be, counted from func to its
// closing brace.
const maxFuncLines = 120

// funcCeilings are the functions over maxFuncLines, keyed "dir Recv.Name",
// each at its length when listed. A ceiling may only fall: a listed
// function that shrinks must have its ceiling lowered to its new length,
// and one back under maxFuncLines leaves the list.
var funcCeilings = map[string]int{
	"cmd/observesmoke run":             405,
	"cmd/cascadesim run":               196,
	"cmd/cascadegw run":                198,
	"internal/trace ExtractTopObjects": 138,
	"cmd/cascadeload run":              126,
}

// maxLines is the ceiling on `make loc`'s total. Only an issue that states
// its reason may raise it, as a bound-backed optimality oracle replacing the
// non-paper baselines would.
const maxLines = 24350

type file struct {
	path, dir   string // slash-separated, relative to the root; dir "." is the root package
	test, bench bool   // bench/ is a module of its own
	ast         *ast.File
}

type tree struct {
	root  string
	fset  *token.FileSet
	files []*file
	lines int // newlines of the non-test files outside bench/
}

// load parses every Go file beneath root outside hidden and testdata directories.
func load(root string) (*tree, error) {
	t := &tree{root: root, fset: token.NewFileSet()}
	return t, filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			if err == nil && d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		a, err := parser.ParseFile(t.fset, p, src, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p) // p is beneath root: WalkDir joined it
		rel = filepath.ToSlash(rel)
		f := &file{rel, path.Dir(rel), strings.HasSuffix(rel, "_test.go"), strings.HasPrefix(rel, "bench/"), a}
		if t.files = append(t.files, f); !f.test && !f.bench {
			t.lines += strings.Count(string(src), "\n")
		}
		return nil
	})
}

// check runs the five checks against the given ceilings, and returns the
// violations, sorted, and a line for each count it takes.
func (t *tree) check(ceilings map[string]int, maxLines int) (fails, summary []string) {
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	t.checkImports(failf)
	summary = append(summary, t.checkMetrics(failf))
	t.checkFuncLengths(ceilings, failf)
	if t.lines > maxLines {
		failf("%d non-test lines outside bench/, above the ceiling of %d", t.lines, maxLines)
	}
	summary = append(summary, fmt.Sprintf("%d non-test lines outside bench/ (ceiling %d)", t.lines, maxLines),
		t.checkReach(failf))
	slices.Sort(fails)
	return fails, summary
}

func (t *tree) checkImports(failf func(string, ...any)) {
	for _, r := range importRules {
		for _, f := range t.files {
			for _, imp := range f.ast.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if f.dir == r.pkg && !f.test && (slices.Contains(r.deny, p) ||
					r.allow != nil && strings.HasPrefix(p, module+"/") && !slices.Contains(r.allow, p)) {
					failf("%s imports %s; %s", f.path, p, r.reason)
				}
			}
		}
	}
}

var (
	registerMethods = map[string]bool{"Counter": true, "CounterFunc": true, "Gauge": true, "GaugeFunc": true, "Summary": true}
	backtickRe      = regexp.MustCompile("`([^`]+)`")
	seriesRe        = regexp.MustCompile(`cascade_[a-z0-9_{},]*[a-z0-9*]`)
	altGroupRe      = regexp.MustCompile(`\{([a-z0-9_]+(?:,[a-z0-9_]+)+)\}`)
	summaryRe       = regexp.MustCompile(`_(bucket|sum|count)$`) // a summary's derived series
)

// checkMetrics matches registrations with the doc's backticked names:
// `{a,b}` groups expand, `{label=…}` selectors strip, `cascade_x_*`
// families are ignored, and documenting a summary's `x_bucket`, `x_sum` or
// `x_count` documents the registered `x`.
func (t *tree) checkMetrics(failf func(string, ...any)) string {
	registered := map[string]string{} // series → its first "file:line" registration
	for _, f := range t.files {
		if f.test { // tests register demo series under throwaway names
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if call, _ := n.(*ast.CallExpr); call != nil && len(call.Args) > 0 {
				sel, _ := call.Fun.(*ast.SelectorExpr)
				if lit, _ := call.Args[0].(*ast.BasicLit); sel != nil && registerMethods[sel.Sel.Name] && lit != nil {
					name, _ := strconv.Unquote(lit.Value)
					if strings.HasPrefix(name, "cascade_") && registered[name] == "" {
						registered[name] = fmt.Sprintf("%s:%d", f.path, t.fset.Position(lit.Pos()).Line)
					}
				}
			}
			return true
		})
	}
	const doc = "docs/OBSERVABILITY.md"
	data, err := os.ReadFile(filepath.Join(t.root, doc))
	if err != nil {
		failf("%v", err)
	}
	documented := map[string]int{} // series → the doc line naming it first
	for i, line := range strings.Split(string(data), "\n") {
		for _, span := range backtickRe.FindAllStringSubmatch(line, -1) {
			for _, tok := range seriesRe.FindAllString(span[1], -1) {
				for _, name := range expandSeries(tok) {
					if documented[name] == 0 {
						documented[name] = i + 1
					}
				}
			}
		}
	}
	for name, site := range registered {
		if documented[name]+documented[name+"_bucket"]+documented[name+"_sum"]+documented[name+"_count"] == 0 {
			failf("%s: series %q is registered but not documented in %s", site, name, doc)
		}
	}
	for name, line := range documented {
		if registered[name] == "" && registered[summaryRe.ReplaceAllString(name, "")] == "" {
			failf("%s:%d: series %q is documented but registered nowhere", doc, line, name)
		}
	}
	return fmt.Sprintf("%d registered series ↔ %d documented names", len(registered), len(documented))
}

// expandSeries resolves one doc token to series names.
func expandSeries(tok string) []string {
	if strings.Contains(tok, "*") {
		return nil
	}
	if m := altGroupRe.FindStringSubmatchIndex(tok); m != nil {
		var out []string
		for _, alt := range strings.Split(tok[m[2]:m[3]], ",") {
			out = append(out, expandSeries(tok[:m[0]]+alt+tok[m[1]:])...)
		}
		return out
	}
	if i := strings.IndexByte(tok, '{'); i >= 0 {
		tok = tok[:i]
	}
	if tok == "" || strings.HasSuffix(tok, "_") {
		return nil
	}
	return []string{tok}
}

func (t *tree) checkFuncLengths(ceilings map[string]int, failf func(string, ...any)) {
	seen := map[string]bool{}
	for _, f := range t.files {
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || f.test || f.bench {
				continue
			}
			key := f.dir + " " + fd.Name.Name
			if fd.Recv != nil {
				key = f.dir + " " + strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + fd.Name.Name
			}
			lines := t.fset.Position(fd.End()).Line - t.fset.Position(fd.Pos()).Line + 1
			ceiling, listed := ceilings[key]
			seen[key] = true
			switch {
			case !listed && lines > maxFuncLines:
				failf("%s (%s) is %d lines; the limit is %d", key, f.path, lines, maxFuncLines)
			case listed && lines > ceiling:
				failf("%s (%s) grew to %d lines past its ceiling of %d", key, f.path, lines, ceiling)
			case listed && lines <= maxFuncLines:
				failf("%s (%s) is down to %d lines: take it off funcCeilings", key, f.path, lines)
			case listed && lines < ceiling:
				failf("%s (%s) shrank to %d lines: lower its ceiling from %d", key, f.path, lines, ceiling)
			}
		}
	}
	for key := range ceilings {
		if !seen[key] {
			failf("funcCeilings lists %s, which no longer exists", key)
		}
	}
}

// checkReach requires every exported top-level name of the root package and
// of internal/... to be named through an import by a file outside its
// package directory (the root's own tests count for it), or to be a type
// its package names in an exported signature or struct field.
func (t *tree) checkReach(failf func(string, ...any)) string {
	declared := map[string]string{} // "dir Name" → where it is declared
	reached := map[string]bool{}
	for _, f := range t.files {
		exported := func(id *ast.Ident) {
			if id.IsExported() {
				declared[f.dir+" "+id.Name] = fmt.Sprintf("%s:%d", f.path, t.fset.Position(id.Pos()).Line)
			}
		}
		name := func(n ast.Node) { // the package's own names in n, its types among them
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					reached[f.dir+" "+id.Name] = true
				}
				_, sel := n.(*ast.SelectorExpr) // another package's name
				return !sel
			})
		}
		decls := f.ast.Decls
		if f.test || f.bench || f.dir != "." && !strings.HasPrefix(f.dir, "internal/") {
			decls = nil // only the root package and internal/... declare names to reach
		}
		for _, decl := range decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					exported(fd.Name)
				}
				if fd.Name.IsExported() {
					name(fd.Type)
				}
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported(s.Name)
					if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
						for _, field := range st.Fields.List {
							if len(field.Names) == 0 || field.Names[0].IsExported() {
								name(field.Type)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						exported(id)
					}
				}
			}
		}
		imported := map[string]string{} // local name → package directory
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, module+"/")
			if p == module {
				dir, ok = ".", true
			}
			if local := path.Base(p); ok && (dir != f.dir || dir == "." && f.test) {
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imported[local] = dir
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] != "" {
					reached[imported[x.Name]+" "+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for key, site := range declared {
		if !reached[key] {
			failf("%s: %s is exported, but nothing outside its package reaches it: unexport or delete it", site, key)
		}
	}
	return fmt.Sprintf("%d exported names", len(declared))
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	t, err := load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	fails, summary := t.check(funcCeilings, maxLines)
	fmt.Println("lint: " + strings.Join(summary, "\nlint: "))
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "lint:", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}
