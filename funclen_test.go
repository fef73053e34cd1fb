package cascade_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines is the longest a function may be, counted from func to its
// closing brace.
const maxFuncLines = 120

// funcCeilings are the functions over maxFuncLines, keyed "dir Recv.Name",
// each at its length when listed. A ceiling may only fall: a listed
// function that shrinks must have its ceiling lowered to its new length,
// and one back under maxFuncLines leaves the list.
var funcCeilings = map[string]int{
	"cmd/cascadesim run":                      516,
	"cmd/observesmoke run":                    405,
	"cmd/cascadegw run":                       205,
	"internal/experiment RollingUpgradeStudy": 202,
	"internal/trace ExtractTopObjects":        138,
	"cmd/cascadeload run":                     126,
}

// TestFunctionLengthCeiling holds the root module's non-test Go (bench/, a
// module of its own, excluded) to maxFuncLines per function, except the
// listed functions, each to its ceiling.
func TestFunctionLengthCeiling(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			key := filepath.ToSlash(filepath.Dir(path)) + " " + name
			lines := fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
			ceiling, listed := funcCeilings[key]
			seen[key] = listed
			switch {
			case !listed && lines > maxFuncLines:
				t.Errorf("%s (%s) is %d lines; the limit is %d", key, path, lines, maxFuncLines)
			case listed && lines > ceiling:
				t.Errorf("%s (%s) grew to %d lines past its ceiling of %d", key, path, lines, ceiling)
			case listed && lines <= maxFuncLines:
				t.Errorf("%s (%s) is down to %d lines: take it off funcCeilings", key, path, lines)
			case listed && lines < ceiling:
				t.Errorf("%s (%s) shrank to %d lines: lower its ceiling from %d", key, path, lines, ceiling)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range funcCeilings {
		if !seen[key] {
			t.Errorf("funcCeilings lists %s, which no longer exists", key)
		}
	}
}
