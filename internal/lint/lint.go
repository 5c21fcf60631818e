// Package lint holds the repository's two static checks, which
// `go test ./...` runs over the whole tree as TestRepositoryLintClean:
//
//   - determinism: no process-global randomness anywhere, and no wall-clock
//     reads or unordered map iteration in the numeric packages, whose
//     outputs must be a pure function of (config, seed, data);
//   - errcheck: no error result silently dropped by production code.
//
// Both guard defects no other test sees: a map-order or unsorted-key bug
// that happens to agree on every run a test makes, or an fsync/rename error
// lost on a path no test fails. Invariants that need the code to run (the
// goldens, worker-count determinism, the zero-allocation pass, metric-name
// grammar, replica aliasing) are pinned by tests, registration panics and
// `go vet` instead; DESIGN.md ("Enforced invariants") maps each to its
// guard.
//
// The checks need nothing beyond the standard library (go/parser, go/ast,
// go/types): the loader in loader.go type-checks the module's packages
// itself, and the standard library from GOROOT source.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one loaded, type-checked package. Only non-test files are
// loaded: both checks apply to production code, and test files routinely
// (and legitimately) discard errors and read clocks.
type Unit struct {
	// Path is the full import path, Rel the module-relative slash path
	// ("" for the module root package).
	Path string
	Rel  string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Testdata marks packages loaded from under a testdata directory — the
	// checks' golden packages. The determinism check treats them as
	// numeric code so golden cases can exercise its path-scoped parts.
	Testdata bool
}

// Finding is one rule violation at one source position. File is relative
// to the module root.
type Finding struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// reporter collects findings, resolving positions in the load's FileSet.
type reporter struct {
	fset *token.FileSet
	root string
	out  []Finding
}

func (r *reporter) report(rule string, pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(r.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	r.out = append(r.out, Finding{
		Rule:    rule,
		File:    file,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Check runs both checks over every loaded unit and returns the findings
// sorted by file, line, column and rule.
func Check(res *Result) []Finding {
	rep := &reporter{fset: res.Fset, root: res.Root}
	for _, u := range res.Units {
		checkDeterminism(u, rep)
		checkErrors(u, rep)
	}
	out := rep.out
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// --- shared helpers ---

// restrictedDirs are the module-relative package paths where the
// wall-clock and map-range checks apply: the numeric core whose outputs
// must be a pure function of (config, seed, data).
var restrictedDirs = []string{
	"internal/core",
	"internal/nn",
	"internal/tensor",
	"internal/graph",
	"internal/malgen",
	"internal/dataset",
}

// inRestrictedScope reports whether the path-scoped determinism checks
// apply to u.
func inRestrictedScope(u *Unit) bool {
	if u.Testdata {
		return true
	}
	for _, d := range restrictedDirs {
		if u.Rel == d || strings.HasPrefix(u.Rel, d+"/") {
			return true
		}
	}
	return false
}

// funcObj resolves the called function object of a call expression (plain
// ident, selector, or parenthesized forms), or nil when the callee is not
// a named func (builtins, function-typed variables, conversions).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedOf unwraps pointers and returns the named type beneath t, if any.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeID renders a named type as "pkgpath.Name" ("Name" for universe
// types), the key format of errcheck's receiver allowlist.
func typeID(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
