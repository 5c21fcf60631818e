// Package lint is the repository's own static-analysis pass: a small
// analyzer framework plus five repo-specific rules that turn invariants the
// MAGIC reproduction rests on — no unseeded randomness, wall-clock reads or
// unordered map iteration in numeric code, disciplined magic_* metric
// names, no silently dropped errors, the Replicate weights-alias/grads-
// private contract, and no exact float comparisons — into a compile-time
// gate instead of a convention. Every rule runs on one package at a time.
// Invariants that need the code to run (the zero-allocation per-sample
// pass, kernel operand aliasing, goroutine shutdown) are pinned by tests
// instead; DESIGN.md ("Enforced invariants") maps each to its test.
//
// The framework is deliberately built on nothing but the standard library
// (go/parser, go/ast, go/types, go/token): the loader in loader.go
// type-checks every package of the module itself, so the linter needs no
// third-party analysis machinery and can run anywhere the Go toolchain
// source tree is present.
//
// Findings can be suppressed in place with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; a directive without one is itself reported (rule
// "suppression"). Suppressions are expected to be rare and documented in
// DESIGN.md ("Enforced invariants").
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Unit is one loaded, type-checked package — the granule analyzers run on.
// Only non-test files are loaded: every rule in the suite applies to
// production code, and test files routinely (and legitimately) compare
// floats, discard errors, and read clocks.
type Unit struct {
	// Path is the full import path, Rel the module-relative slash path
	// ("" for the module root package).
	Path string
	Rel  string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Testdata marks packages loaded from under a testdata directory —
	// the analyzers' golden packages. Path-scoped rules (the determinism
	// wall-clock and map-range checks) treat testdata units as in scope so
	// golden cases can exercise them from anywhere.
	Testdata bool
}

// Finding is one rule violation at one source position. File is relative
// to the module root so output and JSON are machine-stable.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Reporter collects findings during a run. Analyzers report positions in
// the load's shared FileSet; the runner resolves, filters suppressions,
// and sorts.
type Reporter struct {
	fset *token.FileSet
	root string
	out  []Finding
}

// Report records one finding for the given rule at pos.
func (r *Reporter) Report(rule string, pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	r.out = append(r.out, Finding{
		Rule:    rule,
		File:    r.relFile(p.Filename),
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// relFile renders file relative to the module root (slash-separated), or
// unchanged when it lies outside it.
func (r *Reporter) relFile(file string) string {
	if rel, err := filepath.Rel(r.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// Analyzer is one named rule. Run is invoked once per unit. Finish, when
// non-nil, runs once after all units (for cross-package aggregates such as
// the duplicate-metric-registration check). Analyzers carry per-run state,
// so a fresh Suite must be built for every run.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(u *Unit, r *Reporter)
	Finish func(r *Reporter)
}

// Suite returns fresh instances of every repo analyzer.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(),
		NewMetricNames(),
		NewErrCheck(),
		NewReplicaCopy(),
		NewFloatCmp(),
	}
}

// Run executes the analyzers over the load result's units and returns the
// surviving findings sorted by file, line, column, rule. Suppression
// directives from every loaded file are honored.
func Run(res *Result, analyzers []*Analyzer) []Finding {
	rep := &Reporter{fset: res.Fset, root: res.Root}
	sup := collectSuppressions(res, rep)
	for _, a := range analyzers {
		for _, u := range res.Units {
			a.Run(u, rep)
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(rep)
		}
	}
	kept := rep.out[:0]
	for _, f := range rep.out {
		if sup.covers(f) {
			continue
		}
		kept = append(kept, f)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
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
	return kept
}

// ignoreRe matches a well-formed directive: rule list, then a non-empty
// reason.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+(\S.*)$`)

// suppressions maps file → line → the set of rules ignored there. A
// directive on line L covers findings on L (trailing comment) and L+1
// (comment above the statement).
type suppressions map[string]map[int]map[string]bool

func (s suppressions) covers(f Finding) bool {
	lines := s[f.File]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{f.Line, f.Line - 1} {
		if rules := lines[l]; rules[f.Rule] || rules["*"] {
			return true
		}
	}
	return false
}

// collectSuppressions scans every loaded file's comments for lint:ignore
// directives, reporting malformed ones (missing rule or reason) under the
// "suppression" rule.
func collectSuppressions(res *Result, rep *Reporter) suppressions {
	sup := suppressions{}
	for _, u := range res.Units {
		for _, file := range u.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, "//lint:ignore") {
						continue
					}
					m := ignoreRe.FindStringSubmatch(text)
					if m == nil {
						rep.Report("suppression", c.Pos(),
							"malformed //lint:ignore directive: want \"//lint:ignore <rule> <reason>\"")
						continue
					}
					p := res.Fset.Position(c.Pos())
					file := rep.relFile(p.Filename)
					if sup[file] == nil {
						sup[file] = map[int]map[string]bool{}
					}
					if sup[file][p.Line] == nil {
						sup[file][p.Line] = map[string]bool{}
					}
					for _, rule := range strings.Split(m[1], ",") {
						sup[file][p.Line][rule] = true
					}
				}
			}
		}
	}
	return sup
}

// Report is the -json document: the findings plus a count, so CI scripts
// can gate on .count without re-counting.
type Report struct {
	Findings []Finding `json:"findings"`
	Count    int       `json:"count"`
}

// WriteJSON emits the canonical JSON report for findings.
func WriteJSON(w io.Writer, findings []Finding) error {
	rep := Report{Findings: findings, Count: len(findings)}
	if rep.Findings == nil {
		rep.Findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// --- shared analyzer helpers ---

// restrictedDirs are the module-relative package paths where the
// determinism rules apply: the numeric core whose outputs must be a pure
// function of (config, seed, data).
var restrictedDirs = []string{
	"internal/core",
	"internal/nn",
	"internal/tensor",
	"internal/graph",
	"internal/malgen",
	"internal/dataset",
}

// inRestrictedScope reports whether the determinism rules apply to u.
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
// types), the key format of the analyzers' type allow/deny lists.
func typeID(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
