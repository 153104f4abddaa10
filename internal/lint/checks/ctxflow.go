package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// ctxFlow enforces context discipline in library code (everything under
// internal/):
//
//  1. context.Background() and context.TODO() are forbidden — a library
//     that mints its own root context detaches work from its caller's
//     cancellation and deadlines. Binaries (cmd/, examples/) own their
//     roots; libraries must accept one. Deprecated compatibility shims
//     are exempt: they exist precisely to pin old entry points to
//     Background while callers migrate.
//  2. An exported function that takes a context.Context must propagate
//     it (or a context derived from it) to every context-accepting call
//     it makes; dropping the caller's context on an inner call silently
//     severs cancellation.
func ctxFlow() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "ctxflow",
		Doc: "internal packages must not mint root contexts, and exported functions " +
			"taking a context must propagate it to every context-accepting callee",
		Run: runCtxFlow,
	}
}

func runCtxFlow(pass *lint.Pass) {
	if !strings.Contains("/"+pass.Pkg.Path+"/", "/internal/") {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		if pass.Pkg.TestFile(file) {
			// A test is its own root: minting context.Background there
			// is the correct way to start a call tree.
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if lint.IsDeprecated(fn) {
				continue
			}

			// Rule 1: no fresh root contexts in library code.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj := calleeObject(info, call); lint.ExportedFrom(obj, "context", "Background", "TODO") {
					pass.Reportf(call.Pos(),
						"library code calls context.%s; accept a caller context instead (add a ...Context variant and deprecate the old entry point if needed)",
						obj.Name())
				}
				return true
			})

			// Rule 2: exported functions must thread their context.
			if fn.Name.IsExported() {
				checkCtxPropagation(pass, fn)
			}
		}
	}
}

// checkCtxPropagation verifies that every context-accepting call inside
// an exported context-taking function receives the function's context
// or a derivation of it.
func checkCtxPropagation(pass *lint.Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	ctxParam := contextParam(info, fn)
	if ctxParam == nil {
		return
	}
	// "Derived from ctx" is the taint relation seeded at the parameter;
	// context.WithCancel/WithTimeout results inherit it through the
	// call-argument rule.
	derived := newTaint(info, ctxParam)
	derived.propagate(fn.Body)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sig := calleeSignature(info, call)
		if sig == nil || sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
			return true
		}
		arg := call.Args[0]
		if derived.expr(arg) {
			return true
		}
		// A literal Background()/TODO() argument is already reported by
		// rule 1; don't report it twice.
		if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			if lint.ExportedFrom(calleeObject(info, inner), "context", "Background", "TODO") {
				return true
			}
		}
		pass.Reportf(arg.Pos(),
			"%s takes a context.Context but does not pass it (or a context derived from it) to this context-accepting call",
			fn.Name.Name)
		return true
	})
}

// contextParam returns the object of fn's first context.Context
// parameter, or nil.
func contextParam(info *types.Info, fn *ast.FuncDecl) types.Object {
	for _, p := range fn.Type.Params.List {
		for _, name := range p.Names {
			obj := info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t.String() == "context.Context"
}

// calleeSignature resolves the signature a call invokes, nil when the
// callee is a builtin or a type conversion.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
