package lint

import (
	"go/ast"
	"go/types"
)

// checkDeterminism is the "determinism" check. It guards the
// bit-reproducibility contract of the training engine with three parts:
//
//   - Global math/rand entropy: calls to the package-level functions of
//     math/rand or math/rand/v2 that draw from the shared global source
//     (Intn, Float64, Shuffle, …) are forbidden everywhere in the module.
//     Constructors (New, NewSource, NewPCG, …) are fine: all randomness
//     must flow through an explicitly seeded *rand.Rand, such as the
//     sampleSeed scheme that keys dropout masks on (seed, epoch, index).
//
//   - Wall clock in numeric code: time.Now / time.Since / time.Until are
//     forbidden in the restricted packages (internal/{core,nn,tensor,
//     graph,malgen,dataset}). Timing for telemetry belongs in internal/obs
//     (Stopwatch, BusyMeter), which keeps clock reads out of code whose
//     outputs must be a pure function of config, seed and data.
//
//   - Map-range ordering: ranging over a map in a restricted package is
//     flagged, because iteration order is randomized per run and silently
//     leaks into any numeric state the loop body feeds. The one recognized
//     clean shape is a pure key-collection loop (a single append into a
//     slice) whose slice is sorted later in the same function.
//
// randAllowed are the math/rand{,/v2} package-level functions that do not
// touch the global source.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func checkDeterminism(u *Unit, rep *reporter) {
	restricted := inRestrictedScope(u)
	for _, file := range u.Files {
		// Global-source rand and wall-clock uses: resolved through the
		// identifier uses so that both direct calls and passing the
		// function as a value are caught.
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are the sanctioned path
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !randAllowed[fn.Name()] {
					rep.report("determinism", sel.Pos(),
						"%s.%s draws from the process-global random source; use an explicitly seeded *rand.Rand",
						fn.Pkg().Name(), fn.Name())
				}
			case "time":
				if restricted && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
					rep.report("determinism", sel.Pos(),
						"time.%s in a numeric package; route timing through internal/obs (Stopwatch/BusyMeter) so numeric code stays a pure function of (config, seed, data)",
						fn.Name())
				}
			}
			return true
		})

		if !restricted {
			continue
		}
		// Map-range ordering, checked per function so the key-collection
		// exemption can look for a later sort of the collected slice.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(u, fd, rep)
		}
	}
}

// checkMapRanges flags map ranges inside fd, exempting single-statement
// key-collection loops whose target slice is sorted elsewhere in fd.
func checkMapRanges(u *Unit, fd *ast.FuncDecl, rep *reporter) {
	sorted := sortedSlices(u, fd)
	ast.Inspect(fd, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := u.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if obj := collectTarget(u, rng); obj != nil && sorted[obj] {
			return true
		}
		rep.report("determinism", rng.Pos(),
			"map iteration order is nondeterministic; collect keys into a slice and sort, or iterate a sorted key list")
		return true
	})
}

// collectTarget returns the slice variable appended to when the range body
// is exactly `s = append(s, …)`, else nil.
func collectTarget(u *Unit, rng *ast.RangeStmt) types.Object {
	if len(rng.Body.List) != 1 {
		return nil
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) == 0 {
		return nil
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || arg0.Name != lhs.Name {
		return nil
	}
	obj := u.Info.Uses[lhs]
	if obj == nil {
		obj = u.Info.Defs[lhs]
	}
	return obj
}

// sortedSlices finds every ident passed as the first argument to a sort.*
// or slices.Sort* call anywhere in fd.
func sortedSlices(u *Unit, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := funcObj(u.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := u.Info.Uses[arg]; obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}
