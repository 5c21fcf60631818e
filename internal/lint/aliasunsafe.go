package lint

import (
	"strings"
)

// NewAliasUnsafe builds the "aliasunsafe" analyzer. The destination-passing
// kernels fall in two classes: the elementwise ones (AddInto, ScaleInto, …)
// tolerate dst aliasing a source, while the reduction/permutation kernels —
// the matmul family, transpose, and the CSR SpMM propagation — read
// operands after writing dst, so aliasing corrupts the result. The kernels
// defend with a runtime head-pointer panic; this rule catches the same bug
// at lint time, and — through the per-function alias summaries — also
// through wrapper layers: a helper that forwards its own parameters into a
// kernel's dst and source operands inherits the must-not-alias contract,
// and call sites passing one value to both positions are flagged.
//
// Distinct Workspace checkouts are distinct fresh locations, so scratch
// drawn per-operand never trips the rule; the findings are exactly the
// "same value reachable from dst and a source" cases the runtime panic
// would eventually catch in production.
func NewAliasUnsafe() *Analyzer {
	return &Analyzer{
		Name:      "aliasunsafe",
		Doc:       "no value may be passed as both the destination and a source of an aliasing-unsafe *Into kernel, including through wrappers",
		RunModule: runAliasUnsafe,
	}
}

// kernelSpec describes an unsafe kernel's operand layout in unified
// positions (receiver = 0 for methods).
type kernelSpec struct {
	dst  int
	srcs []int
}

// aliasKernelSpecs lists the aliasing-unsafe kernels, keyed like
// allocCallees ("pkgpath.Name" / "pkgpath.Type.Name" suffixes). Every
// entry mirrors a runtime sameBuffer panic in internal/tensor or
// internal/graph — or shares the operand contract of one that does.
var aliasKernelSpecs = map[string]kernelSpec{
	"internal/tensor.MatMulInto":        {dst: 0, srcs: []int{1, 2}},
	"internal/tensor.MatMulTAInto":      {dst: 0, srcs: []int{1, 2}},
	"internal/tensor.MatMulTBInto":      {dst: 0, srcs: []int{1, 2}},
	"internal/tensor.MatMulNaiveInto":   {dst: 0, srcs: []int{1, 2}},
	"internal/tensor.MatMulTANaiveInto": {dst: 0, srcs: []int{1, 2}},
	"internal/tensor.MatMulTBNaiveInto": {dst: 0, srcs: []int{1, 2}},
	"internal/tensor.TInto":             {dst: 0, srcs: []int{1}},
	"internal/graph.CSR.SpMMInto":       {dst: 1, srcs: []int{2}},
	"internal/graph.CSR.SpMMTInto":      {dst: 1, srcs: []int{2}},
}

// aliasKernel resolves a callee ID against the unsafe-kernel table.
func aliasKernel(id string) (kernelSpec, bool) {
	for key, spec := range aliasKernelSpecs {
		if id == key || strings.HasSuffix(id, "/"+key) {
			return spec, true
		}
	}
	return kernelSpec{}, false
}

func runAliasUnsafe(mc *ModuleContext, rep *Reporter) {
	for _, comp := range mc.Graph.SCCs {
		for _, n := range comp {
			env := mc.Env(n.Fn)
			for _, cf := range mc.Calls(n.Fn) {
				// Direct kernel calls.
				if spec, ok := aliasKernel(cf.id); ok {
					checkAliasCall(rep, env, &cf, spec.dst, spec.srcs, shortCallee(cf.id))
					continue
				}
				// Wrapper calls: the callee's summary says positions
				// (dst, src) reach a kernel's conflicting operands. An
				// interface method (a backend Forward dispatched through
				// its interface) inherits the joined contracts of its
				// module implementations.
				cs := mc.Summaries[cf.callee]
				if cs == nil {
					cs = mc.IfaceSummary(cf.callee)
				}
				if cs == nil {
					continue
				}
				for _, pr := range cs.AliasPairs {
					checkAliasCall(rep, env, &cf, pr[0], []int{pr[1]}, cf.callee.Name())
				}
			}
		}
	}
}

// checkAliasCall reports when the operand at position dst must-aliases an
// operand at one of the src positions.
func checkAliasCall(rep *Reporter, env *canonEnv, cf *callFact, dst int, srcs []int, callee string) {
	dexpr := cf.argAt(dst)
	if dexpr == nil {
		return
	}
	d := env.canon(dexpr)
	if d == "" {
		return
	}
	for _, sp := range srcs {
		sexpr := cf.argAt(sp)
		if sexpr == nil {
			continue
		}
		if s := env.canon(sexpr); s == d {
			rep.Report("aliasunsafe", cf.call.Pos(),
				"destination aliases a source operand in call to %s; the kernel reads sources after writing dst, so this corrupts the result (use a separate workspace checkout)",
				callee)
			return
		}
	}
}
