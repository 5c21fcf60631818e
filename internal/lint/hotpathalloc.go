package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewHotPathAlloc builds the "hotpathalloc" analyzer. It guards the
// zero-allocation training contract: after the workspace refactor, every
// Forward and Backward in internal/core and internal/nn draws scratch from
// the replica workspace and writes through the destination-passing *Into
// kernels. A call to one of the allocating tensor/nn constructors inside
// such a method reintroduces per-sample garbage that the alloc-pinning
// tests will reject — this rule flags it at lint time, with the file and
// call site, before a test has to bisect which layer regressed.
//
// The check is transitive: a Forward that calls a helper which (through
// any depth of statically resolved calls) reaches an allocating
// constructor is flagged at the Forward's call site, naming the root
// constructor — factoring the allocation into a wrapper no longer hides
// it. Two things stop the propagation: the Workspace checkout methods,
// whose internal allocations are grow-once and amortize to zero, and call
// sites carrying a //lint:ignore hotpathalloc directive, which bless the
// subtree behind them.
//
// Intentional allocations (a one-off cold path, a grow-once cache) are
// suppressed in place with //lint:ignore hotpathalloc <reason>.
func NewHotPathAlloc() *Analyzer {
	return &Analyzer{
		Name:      "hotpathalloc",
		Doc:       "no transitively allocating tensor/nn calls inside Forward/Backward in internal/core and internal/nn",
		RunModule: runHotPathAlloc,
	}
}

// hotPathDirs are the packages whose Forward/Backward methods form the
// per-sample training hot path.
var hotPathDirs = []string{
	"internal/core",
	"internal/nn",
}

// allocCallees lists the allocating constructors and methods banned on the
// hot path, as "pkgpath.Name" / "pkgpath.Type.Name" suffixes. Each has a
// destination-passing or workspace-backed replacement.
var allocCallees = []string{
	"internal/tensor.New",
	"internal/tensor.FromRows",
	"internal/tensor.MustFromRows",
	"internal/tensor.MatMul",
	"internal/tensor.Add",
	"internal/tensor.Sub",
	"internal/tensor.Hadamard",
	"internal/tensor.HConcat",
	"internal/tensor.VConcat",
	"internal/tensor.Matrix.Clone",
	"internal/tensor.Matrix.T",
	"internal/tensor.Matrix.Scale",
	"internal/tensor.Matrix.Apply",
	"internal/tensor.Matrix.Map",
	"internal/tensor.Matrix.SliceCols",
	"internal/tensor.Matrix.SliceRows",
	"internal/tensor.Matrix.SelectRows",
	"internal/graph.NewCSR",
	"internal/graph.CSR.Dense",
	"internal/nn.NewVolume",
	"internal/nn.VecVolume",
	"internal/nn.MatrixVolume",
	"internal/nn.Volume.Clone",
	"internal/nn.Volume.Reshape",
}

func inHotPathScope(u *Unit) bool {
	if u.Testdata {
		return true
	}
	for _, d := range hotPathDirs {
		if u.Rel == d || strings.HasPrefix(u.Rel, d+"/") {
			return true
		}
	}
	return false
}

// calleeID renders a called function as "pkgpath.Name", or
// "pkgpath.Type.Name" for methods, matching the allocCallees key format.
func calleeID(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return typeID(n) + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

func runHotPathAlloc(mc *ModuleContext, rep *Reporter) {
	for _, comp := range mc.Graph.SCCs {
		for _, n := range comp {
			if !inHotPathScope(n.Unit) {
				continue
			}
			name := n.Decl.Name.Name
			if name != "Forward" && name != "Backward" {
				continue
			}
			ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcObj(n.Unit.Info, call)
				if fn == nil {
					return true
				}
				id := calleeID(fn)
				if bad, ok := matchCallee(id, allocCallees); ok {
					rep.Report("hotpathalloc", call.Pos(),
						"%s allocates inside %s; use a workspace checkout and the *Into kernels (or //lint:ignore hotpathalloc with a reason)",
						shortCallee(bad), name)
					return true
				}
				// Transitive leg: a module-internal callee whose summary
				// says an allocating constructor is reachable from it —
				// unless the path runs through a workspace checkout.
				// Interface methods (a conv backend's Forward/Backward
				// dispatched through core.ConvBackend, say) resolve to the
				// joined facts of their module implementations, so dynamic
				// dispatch cannot exempt a backend from the contract.
				if _, stop := matchCallee(id, allocStopCallees); stop {
					return true
				}
				s := mc.Summaries[fn]
				if s == nil {
					s = mc.IfaceSummary(fn)
				}
				if s != nil && s.Allocates {
					rep.Report("hotpathalloc", call.Pos(),
						"%s transitively allocates (reaches %s) inside %s; use a workspace checkout and the *Into kernels (or //lint:ignore hotpathalloc with a reason)",
						fn.Name(), s.AllocCallee, name)
				}
				return true
			})
		}
	}
}

// shortCallee trims the directory part of an allocCallees entry for the
// message ("internal/tensor.Matrix.Clone" → "tensor.Matrix.Clone").
func shortCallee(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
