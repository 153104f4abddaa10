package checks

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint"
)

// obsKey audits observability registration names. The obs registry is
// keyed by string: Counter, Add, and SetInspection all take a name,
// and dashboards, the inspection endpoint, and the benchmark
// comparisons all join on those exact spellings. A name computed at
// runtime can drift between call sites (two counters where one was
// meant), and an off-convention name breaks the dotted
// subsystem.metric grouping the inspection output sorts by. The
// analyzer enforces, everywhere except inside the obs package itself
// (which passes caller-supplied names through by design):
//
//   - names passed to Registry.Counter/Add/SetInspection are
//     compile-time string constants;
//   - the constant value matches the registry convention —
//     lower_snake segments joined by dots ("core.hits",
//     "transport.bytes_sent");
//   - no two SetInspection calls in a package register the same name
//     (the second silently replaces the first).
//
// Registry.Op, Registry.Rep, and Stage are data dimensions, not
// registration keys: operation and representation names arrive from
// the request and are exempt.
func obsKey() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "obskey",
		Doc: "obs registry names must be compile-time constants in dotted lower_snake " +
			"form, with no duplicate inspection registrations",
		Run: runObsKey,
	}
}

// obsPkgSuffix identifies the observability package by import path
// suffix, so fixtures under testdata can stand in for the real module
// path.
const obsPkgSuffix = "internal/obs"

// obsNamePattern is the registry naming convention: dotted
// lower_snake, e.g. "core.hits", "transport.bytes_sent",
// "invalidation".
var obsNamePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)

func runObsKey(pass *lint.Pass) {
	if hasPathSuffix(pass.Pkg.Path, obsPkgSuffix) {
		return
	}
	info := pass.Pkg.Info

	// First SetInspection position per name, package-wide, for
	// duplicate detection.
	inspections := make(map[string]token.Pos)

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			method := registryMethod(info, call)
			if method == "" {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			tv, ok := info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"name passed to Registry.%s must be a compile-time string constant; a runtime-built name can drift between call sites and split one metric into several", method)
				return true
			}
			name := constant.StringVal(tv.Value)
			if !obsNamePattern.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"obs name %q does not follow the registry convention (dotted lower_snake, e.g. %q)", name, "core.hits")
			}
			if method == "SetInspection" {
				if prev, ok := inspections[name]; ok {
					pass.Reportf(arg.Pos(),
						"duplicate inspection registration %q (first registered at %s); the second silently replaces the first", name, shortPos(pass, prev))
				} else {
					inspections[name] = arg.Pos()
				}
			}
			return true
		})
	}
}

// registryMethod returns the called obs.Registry registration method
// name ("Counter", "Add", or "SetInspection"), or "" when call is
// anything else.
func registryMethod(info *types.Info, call *ast.CallExpr) string {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return ""
	}
	switch fn.Name() {
	case "Counter", "Add", "SetInspection":
	default:
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOrPointee(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Registry" {
		return ""
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !hasPathSuffix(pkg.Path(), obsPkgSuffix) {
		return ""
	}
	return fn.Name()
}
