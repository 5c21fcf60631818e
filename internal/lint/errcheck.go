package lint

import (
	"go/ast"
	"go/types"
)

// checkErrors is the "errcheck" check: a call whose results include an
// error may not be used as a bare statement (plain, deferred, or in a go
// statement) — the error must be handled or visibly discarded with `_ =`.
// Test files are never loaded, so the rule bites only production code.
//
// A small allowlist keeps the rule signal-dense: the fmt printing
// functions (their errors surface only for broken writers, and the repo
// prints to stdout/stderr) and the never-failing writers strings.Builder
// and bytes.Buffer.
// errcheckAllowedRecv are receiver types whose methods are documented to
// never return a non-nil error.
var errcheckAllowedRecv = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func checkErrors(u *Unit, rep *reporter) {
	for _, file := range u.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			deferred := false
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(s.X).(*ast.CallExpr)
			case *ast.DeferStmt:
				call, deferred = s.Call, true
			case *ast.GoStmt:
				call = s.Call
			}
			if call == nil || !returnsError(u.Info, call) || errcheckAllowed(u.Info, call) {
				return true
			}
			fix := "handle it or assign to _"
			if deferred {
				fix = "handle it in a deferred closure (defer func() { _ = … }())"
			}
			rep.report("errcheck", call.Pos(), "%s returns an error that is silently discarded; %s",
				calleeName(u.Info, call), fix)
			return true
		})
	}
}

// returnsError reports whether any result of the call is of type error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
	default:
		return types.Identical(tv.Type, errType)
	}
	return false
}

// errcheckAllowed applies the allowlist to the call's callee.
func errcheckAllowed(info *types.Info, call *ast.CallExpr) bool {
	fn := funcObj(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	return n != nil && errcheckAllowedRecv[typeID(n)]
}

// calleeName renders the callee for the finding message.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := funcObj(info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n := namedOf(sig.Recv().Type()); n != nil {
				return "(" + typeID(n) + ")." + fn.Name()
			}
			return fn.Name()
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
