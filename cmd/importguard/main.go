// Command importguard enforces the repo's import boundaries:
//
//   - Engine boundary: the protocol incarnations (the replay schemes, the
//     cluster and the HTTP gateway) must reach the placement
//     optimizer only through internal/engine — never by importing
//     internal/core directly. A direct import means transport code is
//     re-deriving protocol steps instead of delegating to the shared
//     engine, exactly the drift the engine extraction removed.
//   - Observability independence: internal/audit and internal/span may
//     import only the standard library plus internal/model and
//     internal/metrics. The auditor is an independent oracle for the
//     protocol implementation — importing internal/core (or the engine,
//     or a transport) would let the oracle share a bug with the code under
//     test, and would also create an import cycle with the engine's hooks.
//
// Run via `make lint` (part of `make check`). Exit status 1 and one line
// per offending file on violation.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// rule constrains one package directory's imports: an import violates the
// rule when deny lists it, or when allowPrefix is set and the import starts
// with allowPrefix but is not in allow.
type rule struct {
	pkg    string   // directory, slash-separated, relative to the repo root
	deny   []string // imports this package must not use
	reason string   // appended to the violation line

	allowPrefix string   // when set, imports under this prefix…
	allow       []string // …must be one of these
}

var rules = []rule{
	{pkg: "internal/scheme", deny: []string{"cascade/internal/core"}, reason: "go through cascade/internal/engine"},
	{pkg: "internal/sim", deny: []string{"cascade/internal/core"}, reason: "go through cascade/internal/engine"},
	{pkg: "internal/runtime", deny: []string{"cascade/internal/core"}, reason: "go through cascade/internal/engine"},
	{pkg: "internal/httpgw", deny: []string{"cascade/internal/core"}, reason: "go through cascade/internal/engine"},

	{
		pkg:         "internal/audit",
		allowPrefix: "cascade/",
		allow:       []string{"cascade/internal/model", "cascade/internal/metrics"},
		reason:      "the auditor is an independent oracle (stdlib + model + metrics only)",
	},
	{
		pkg:         "internal/controlplane",
		allowPrefix: "cascade/",
		allow:       []string{"cascade/internal/model", "cascade/internal/metrics", "cascade/internal/topology"},
		reason:      "the control plane sits below every incarnation (stdlib + model + metrics + topology only)",
	},
	{
		pkg:         "internal/store",
		allowPrefix: "cascade/",
		allow:       []string{"cascade/internal/model", "cascade/internal/metrics"},
		reason:      "the body store sits below every incarnation (stdlib + model + metrics only)",
	},
	{
		pkg:         "internal/coherency",
		allowPrefix: "cascade/",
		allow:       []string{"cascade/internal/model", "cascade/internal/metrics"},
		reason:      "the coherency substrate sits below every incarnation (stdlib + model + metrics only)",
	},
	{
		pkg:         "internal/span",
		allowPrefix: "cascade/",
		allow:       []string{"cascade/internal/model", "cascade/internal/metrics"},
		reason:      "span tracing sits below every incarnation (stdlib + model + metrics only)",
	},
	{
		pkg:         "internal/obs/federate",
		allowPrefix: "cascade/",
		allow:       []string{"cascade/internal/model", "cascade/internal/metrics", "cascade/internal/controlplane"},
		reason:      "the federator observes from outside (stdlib + model + metrics + controlplane only)",
	},
}

func (r rule) violates(importPath string) bool {
	for _, d := range r.deny {
		if importPath == d {
			return true
		}
	}
	if r.allowPrefix != "" && strings.HasPrefix(importPath, r.allowPrefix) {
		for _, a := range r.allow {
			if importPath == a {
				return false
			}
		}
		return true
	}
	return false
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations := 0
	for _, r := range rules {
		dir := filepath.Join(root, filepath.FromSlash(r.pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "importguard: %v\n", err)
			os.Exit(2)
		}
		for _, e := range entries {
			name := e.Name()
			// Test files may reach into core to cross-check the DP against
			// brute force; only shipped code is guarded.
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				fmt.Fprintf(os.Stderr, "importguard: %v\n", err)
				os.Exit(2)
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if r.violates(ip) {
					fmt.Fprintf(os.Stderr, "importguard: %s imports %s; %s\n", path, ip, r.reason)
					violations++
				}
			}
		}
	}
	if violations > 0 {
		os.Exit(1)
	}
}
