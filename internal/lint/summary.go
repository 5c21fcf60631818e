package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file is the interprocedural layer: a per-function summary store and
// the worklist fixpoint that propagates summaries bottom-up through the
// call graph's SCCs. Three fact families are tracked:
//
//   - Allocates: the function (transitively) calls one of the allocating
//     tensor/nn/graph constructors (hotpathalloc's ban list). Propagation
//     stops at the Workspace checkout methods — their internal allocations
//     are grow-once and amortize to zero — and at call sites carrying a
//     //lint:ignore hotpathalloc directive, which blesses the whole
//     subtree behind that call.
//   - ObservesSync: the function (transitively) observes a concurrency
//     anchor — a context.Context value, a sync.WaitGroup, or any
//     channel-typed value (receive, send, select, or mere reference; a
//     goroutine touching a channel is participating in a rendezvous).
//   - AliasPairs: position pairs (dst, src) that must not alias because
//     they flow — possibly through wrapper layers — into the destination
//     and a source operand of an aliasing-unsafe *Into kernel. Positions
//     are unified: 0 is the receiver when present, parameters follow.
//
// Summaries are deliberately may-miss for calls through function values:
// those contribute nothing, so a fact can be absent but never wrong. Calls
// through interface methods resolve closed-world instead (CallGraph.Impls):
// the Allocates and AliasPairs facts join across every module
// implementation, so dispatching a backend's Forward/Backward through an
// interface cannot hide an allocation or an alias contract. The join is
// restricted to those two fact families — ObservesSync keeps the strict
// may-miss polarity the rule built on it assumes.

// Summary is the per-function fact record.
type Summary struct {
	// Allocates: the function transitively calls an allocating
	// tensor/nn/graph constructor. AllocCallee names the root constructor
	// for diagnostics ("tensor.New").
	Allocates   bool
	AllocCallee string

	// ObservesSync: the function transitively observes a context,
	// WaitGroup, or channel.
	ObservesSync bool

	// AliasPairs are unified position pairs (dst, src) that reach an
	// unsafe kernel's destination and source operands.
	AliasPairs [][2]int
}

func (s *Summary) addAliasPair(d, src int) bool {
	for _, p := range s.AliasPairs {
		if p[0] == d && p[1] == src {
			return false
		}
	}
	s.AliasPairs = append(s.AliasPairs, [2]int{d, src})
	return true
}

// callFact is one statically resolved call site inside a function, with
// the operand expressions laid out in the callee's unified positions.
type callFact struct {
	call   *ast.CallExpr
	callee *types.Func
	id     string   // calleeID(callee)
	recv   ast.Expr // receiver expression, nil for plain functions
	args   []ast.Expr
}

// argAt returns the expression at the callee's unified position k
// (receiver = 0 when present), or nil when out of range.
func (cf *callFact) argAt(k int) ast.Expr {
	if sig, ok := cf.callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if k == 0 {
			return cf.recv
		}
		k--
	}
	if k < 0 || k >= len(cf.args) {
		return nil
	}
	return cf.args[k]
}

// ModuleContext is the shared state of one interprocedural run: the call
// graph, canonical-location environments, call facts, and the summary
// fixpoint result. It is built once per Run and shared by every rule with
// a RunModule hook.
type ModuleContext struct {
	Res       *Result
	Graph     *CallGraph
	Summaries map[*types.Func]*Summary

	envs  map[*types.Func]*canonEnv
	calls map[*types.Func][]callFact
	sup   suppressions
}

// Env returns the canonical-location environment of fn's body (nil when fn
// has no node in the graph).
func (mc *ModuleContext) Env(fn *types.Func) *canonEnv { return mc.envs[fn] }

// Calls returns the resolved call facts of fn's body.
func (mc *ModuleContext) Calls(fn *types.Func) []callFact { return mc.calls[fn] }

// relFile maps a token position to the module-relative file path and line,
// in the same format findings and suppressions use.
func (mc *ModuleContext) relFile(pos token.Pos) (string, int) {
	p := mc.Res.Fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(mc.Res.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, p.Line
}

// allocSuppressed reports whether the line holding pos carries a
// hotpathalloc suppression — such a call's allocation facts must not leak
// into its callers' summaries.
func (mc *ModuleContext) allocSuppressed(pos token.Pos) bool {
	file, line := mc.relFile(pos)
	return mc.sup.covers(Finding{Rule: "hotpathalloc", File: file, Line: line})
}

// allocStopCallees are functions whose internal allocations are grow-once
// workspace growth, not per-call garbage: the Allocates fact does not
// propagate through them.
var allocStopCallees = []string{
	"internal/tensor.Workspace.Matrix",
	"internal/tensor.Workspace.Floats",
	"internal/nn.Workspace.Matrix",
	"internal/nn.Workspace.Floats",
	"internal/nn.Workspace.Volume",
}

// matchCallee reports whether id matches one of the list's
// "pkgpath.Name" / "pkgpath.Type.Name" suffixes, returning the entry.
func matchCallee(id string, list []string) (string, bool) {
	for _, c := range list {
		if id == c || strings.HasSuffix(id, "/"+c) {
			return c, true
		}
	}
	return "", false
}

// newModuleContext builds the call graph, per-function environments and
// call facts, seeds direct facts, and runs the bottom-up SCC fixpoint.
func newModuleContext(res *Result, sup suppressions) *ModuleContext {
	mc := &ModuleContext{
		Res:       res,
		Graph:     BuildCallGraph(res),
		Summaries: map[*types.Func]*Summary{},
		envs:      map[*types.Func]*canonEnv{},
		calls:     map[*types.Func][]callFact{},
		sup:       sup,
	}

	for _, comp := range mc.Graph.SCCs {
		for _, n := range comp {
			mc.seedNode(n)
		}
	}

	// Bottom-up propagation: SCCs arrive callees-first, so one pass with an
	// inner fixpoint per component reaches the global fixpoint.
	for _, comp := range mc.Graph.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if mc.propagateNode(n) {
					changed = true
				}
			}
		}
	}
	return mc
}

// seedNode computes fn's environment, call facts, and direct (intra-
// procedural) summary facts.
func (mc *ModuleContext) seedNode(n *FuncNode) {
	env := newCanonEnv(n)
	mc.envs[n.Fn] = env
	s := &Summary{}
	mc.Summaries[n.Fn] = s

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		v, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := funcObj(n.Unit.Info, v)
		if callee == nil {
			return true
		}
		cf := callFact{call: v, callee: callee, id: calleeID(callee), args: v.Args}
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return true // method expression or exotic form; no facts
			}
			if ms, ok := n.Unit.Info.Selections[sel]; !ok || ms.Kind() != types.MethodVal {
				return true
			}
			cf.recv = sel.X
		}
		mc.calls[n.Fn] = append(mc.calls[n.Fn], cf)

		// Direct allocation fact.
		if c, ok := matchCallee(cf.id, allocCallees); ok && !mc.allocSuppressed(v.Pos()) && !s.Allocates {
			s.Allocates = true
			s.AllocCallee = shortCallee(c)
		}
		// Direct alias-pair fact: parameters flowing straight into an
		// unsafe kernel's dst and source operands.
		if spec, ok := aliasKernel(cf.id); ok {
			d := env.canonParam(cf.argAt(spec.dst))
			if d >= 0 {
				for _, sp := range spec.srcs {
					if src := env.canonParam(cf.argAt(sp)); src >= 0 && src != d {
						s.addAliasPair(d, src)
					}
				}
			}
		}
		return true
	})

	if observesSyncNode(n.Unit, n.Decl.Body) {
		s.ObservesSync = true
	}
}

// IfaceSummary joins the interface-resolvable facts (Allocates and
// AliasPairs) of every module implementation of an interface method.
// Returns nil when fn is not a module interface method, has no declared
// implementations, or no implementation carries either fact.
func (mc *ModuleContext) IfaceSummary(fn *types.Func) *Summary {
	impls := mc.Graph.Impls[fn]
	if len(impls) == 0 {
		return nil
	}
	out := &Summary{}
	for _, impl := range impls {
		is := mc.Summaries[impl]
		if is == nil {
			continue
		}
		if is.Allocates && !out.Allocates {
			out.Allocates = true
			out.AllocCallee = is.AllocCallee
		}
		for _, pr := range is.AliasPairs {
			out.addAliasPair(pr[0], pr[1])
		}
	}
	if !out.Allocates && len(out.AliasPairs) == 0 {
		return nil
	}
	return out
}

// propagateNode folds callee summaries into n's summary; reports change.
func (mc *ModuleContext) propagateNode(n *FuncNode) bool {
	s := mc.Summaries[n.Fn]
	env := mc.envs[n.Fn]
	changed := false
	for _, cf := range mc.calls[n.Fn] {
		cs := mc.Summaries[cf.callee]
		if cs == nil {
			// Interface-dispatched call: join the closed-world facts
			// across implementations (nil again when there are none).
			cs = mc.IfaceSummary(cf.callee)
		}
		if cs == nil {
			continue // outside the loaded pattern set, or no body
		}
		if _, stop := matchCallee(cf.id, allocStopCallees); !stop {
			if cs.Allocates && !s.Allocates && !mc.allocSuppressed(cf.call.Pos()) {
				s.Allocates = true
				s.AllocCallee = cs.AllocCallee
				changed = true
			}
		}
		if cs.ObservesSync && !s.ObservesSync {
			s.ObservesSync = true
			changed = true
		}
		for _, pr := range cs.AliasPairs {
			d := env.canonParam(cf.argAt(pr[0]))
			src := env.canonParam(cf.argAt(pr[1]))
			if d >= 0 && src >= 0 && d != src && s.addAliasPair(d, src) {
				changed = true
			}
		}
	}
	return changed
}

// observesSyncNode reports direct syntactic evidence inside root that the
// code observes a concurrency anchor: a select statement, a channel
// receive or range, or any reference to a context.Context, sync.WaitGroup,
// or channel-typed value.
func observesSyncNode(u *Unit, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.Ident:
			if obj, ok := u.Info.Uses[v].(*types.Var); ok && isSyncAnchorType(obj.Type()) {
				found = true
			}
		case *ast.SelectorExpr:
			if sel, ok := u.Info.Selections[v]; ok && sel.Kind() == types.FieldVal && isSyncAnchorType(sel.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSyncAnchorType reports whether t is a concurrency anchor: a channel, a
// context.Context, or a sync.WaitGroup (possibly behind a pointer).
func isSyncAnchorType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if n, ok := t.(*types.Named); ok {
		switch typeID(n) {
		case "context.Context", "sync.WaitGroup":
			return true
		}
	}
	return false
}

// --- canonical locations ---

// localKind classifies how a single-assignment local was produced.
type localKind int

const (
	kindAlias       localKind = iota // copied from another expression
	kindConstructed                  // composite literal, new, make, or a fresh checkout/constructor
	kindCall                         // result of some other call: possibly shared memory
)

// canonEnv resolves expressions inside one function body to canonical
// location strings. Two expressions with the same non-empty canonical
// string must alias; distinct strings carry no claim. Prefixes:
//
//	p<i>   unified position i (receiver 0 when present, then parameters)
//	g:     a package-level variable
//	new:   a local holding freshly constructed memory
//	call:  a local holding some call's result (may be shared)
//	v:     any other single-assignment local, identified by object
//
// Selector paths append ".field"; dereferences append ".*". Reassigned
// locals, loop variables, and anything else multi-bound resolve to "" —
// unknown, never reported on.
type canonEnv struct {
	u        *Unit
	pos      map[*types.Var]int
	kind     map[*types.Var]localKind
	rhs      map[*types.Var]ast.Expr
	unstable map[*types.Var]bool
}

// newCanonEnv scans n's declaration and body once.
func newCanonEnv(n *FuncNode) *canonEnv {
	e := &canonEnv{
		u:        n.Unit,
		pos:      map[*types.Var]int{},
		kind:     map[*types.Var]localKind{},
		rhs:      map[*types.Var]ast.Expr{},
		unstable: map[*types.Var]bool{},
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig != nil {
		p := 0
		if r := sig.Recv(); r != nil {
			e.pos[r] = 0
			p = 1
		}
		for i := 0; i < sig.Params().Len(); i++ {
			e.pos[sig.Params().At(i)] = p + i
		}
	}

	bind := func(id *ast.Ident, rhs ast.Expr) {
		obj, ok := e.u.Info.Defs[id].(*types.Var)
		if !ok {
			// Redeclaration in a multi-assign :=; the object is rebound.
			if uobj, ok := e.u.Info.Uses[id].(*types.Var); ok {
				e.unstable[uobj] = true
			}
			return
		}
		if _, seen := e.rhs[obj]; seen {
			e.unstable[obj] = true
			return
		}
		e.rhs[obj] = rhs
		e.kind[obj] = classifyRHS(e.u, rhs)
	}
	markAssigned := func(x ast.Expr) {
		if id, ok := ast.Unparen(x).(*ast.Ident); ok {
			if obj, ok := e.u.Info.Uses[id].(*types.Var); ok {
				e.unstable[obj] = true
			}
		}
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE && len(v.Lhs) == len(v.Rhs) {
				for i, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						bind(id, v.Rhs[i])
					}
				}
				return true
			}
			if v.Tok == token.DEFINE {
				// Multi-value define from one call: call-derived locals.
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						bind(id, v.Rhs[0])
					}
				}
				return true
			}
			for _, lhs := range v.Lhs {
				markAssigned(lhs)
			}
		case *ast.IncDecStmt:
			markAssigned(v.X)
		case *ast.RangeStmt:
			markAssigned(v.Key)
			if v.Value != nil {
				markAssigned(v.Value)
			}
			// Range loop variables declared with := are rebound each
			// iteration; their identity is still a single location per
			// iteration, which is all intra-statement comparison needs —
			// but cross-statement must-alias claims would be wrong, so
			// mark the defined objects unstable too.
			for _, x := range []ast.Expr{v.Key, v.Value} {
				if id, ok := x.(*ast.Ident); ok && id != nil {
					if obj, ok := e.u.Info.Defs[id].(*types.Var); ok {
						e.unstable[obj] = true
					}
				}
			}
		}
		return true
	})
	return e
}

// classifyRHS decides what kind of location a define's right-hand side
// produces.
func classifyRHS(u *Unit, rhs ast.Expr) localKind {
	switch v := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		return kindConstructed
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				return kindConstructed
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && (id.Name == "new" || id.Name == "make") {
			if _, isBuiltin := u.Info.Uses[id].(*types.Builtin); isBuiltin {
				return kindConstructed
			}
		}
		if fn := funcObj(u.Info, v); fn != nil {
			id := calleeID(fn)
			if _, ok := matchCallee(id, allocCallees); ok {
				return kindConstructed // fresh constructor result
			}
			if _, ok := matchCallee(id, allocStopCallees); ok {
				return kindConstructed // fresh (or exclusively owned) checkout
			}
		}
		return kindCall
	}
	return kindAlias
}

const canonMaxDepth = 24

// canon resolves x to its canonical location string ("" when unknown).
func (e *canonEnv) canon(x ast.Expr) string { return e.canonDepth(x, 0) }

func (e *canonEnv) canonDepth(x ast.Expr, d int) string {
	if x == nil || d > canonMaxDepth {
		return ""
	}
	switch v := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj, ok := e.u.Info.Uses[v].(*types.Var)
		if !ok {
			obj, ok = e.u.Info.Defs[v].(*types.Var)
		}
		if !ok || obj == nil {
			return ""
		}
		return e.canonVar(obj, d)
	case *ast.SelectorExpr:
		if sel, ok := e.u.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			base := e.canonDepth(v.X, d+1)
			if base == "" {
				return ""
			}
			return base + "." + v.Sel.Name
		}
		// Qualified package-level variable (pkg.Var).
		if obj, ok := e.u.Info.Uses[v.Sel].(*types.Var); ok && isPackageLevel(obj) {
			return "g:" + obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return e.canonDepth(v.X, d+1)
		}
	case *ast.StarExpr:
		base := e.canonDepth(v.X, d+1)
		if base == "" {
			return ""
		}
		return base + ".*"
	}
	return ""
}

func (e *canonEnv) canonVar(obj *types.Var, d int) string {
	if e.unstable[obj] {
		return ""
	}
	if p, ok := e.pos[obj]; ok {
		return fmt.Sprintf("p%d", p)
	}
	if isPackageLevel(obj) {
		return "g:" + obj.Pkg().Path() + "." + obj.Name()
	}
	if rhs, ok := e.rhs[obj]; ok {
		switch e.kind[obj] {
		case kindConstructed:
			return fmt.Sprintf("new:%p", obj)
		case kindCall:
			return fmt.Sprintf("call:%p", obj)
		default:
			if s := e.canonDepth(rhs, d+1); s != "" {
				return s
			}
			return fmt.Sprintf("v:%p", obj)
		}
	}
	// A local we did not see bound (captured from an enclosing scope, or a
	// declaration form we do not track): its object identity is still a
	// single location.
	return fmt.Sprintf("v:%p", obj)
}

// isPackageLevel reports whether obj is a package-scoped variable.
func isPackageLevel(obj *types.Var) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// canonParam returns the unified position when x resolves exactly to a
// whole parameter or receiver ("p<i>", no field path), else -1.
func (e *canonEnv) canonParam(x ast.Expr) int {
	c := e.canon(x)
	var p int
	if _, err := fmt.Sscanf(c, "p%d", &p); err != nil || fmt.Sprintf("p%d", p) != c {
		return -1
	}
	return p
}
