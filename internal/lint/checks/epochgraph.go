package checks

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint"
)

// epochGraph audits dependency-graph declarations against the
// invalidation subsystem's conventions. The epoch-based invalidator
// (internal/invalidate) is driven entirely by Graph.Read/Graph.Write
// declarations keyed by operation name, and nothing at runtime checks
// that those names are real: a typo'd operation silently gets an empty
// read set, which means its cache entries are never invalidated —
// stale responses, no error. The analyzer enforces, per package:
//
//   - operation names passed to Read/Write are compile-time constants;
//   - inline string literals name the package-level constant instead
//     (with a SuggestedFix when a same-valued constant exists);
//   - operation values follow the WSDL-generated do* convention
//     (doGetItem, doGoogleSearch, …), so a graph entry can only name
//     an operation that codegen could have produced;
//   - no operation is declared twice in the same set, and no operation
//     appears in both the read and the write set — a read-write
//     operation's fills would be invalidated by its own writes;
//   - keyspace names are never built from inline literals; the
//     keyspace (or its prefix) must be a package-level constant, the
//     single point where grep finds every spelling.
func epochGraph() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "epochgraph",
		Doc: "invalidation graph declarations must use named, do*-convention operation " +
			"constants and package-level keyspace constants, with no duplicate or " +
			"read-write-conflicting entries",
		Run: runEpochGraph,
	}
}

// invalidatePkgSuffix identifies the invalidation package by import
// path suffix, so fixtures under testdata can stand in for the real
// module path.
const invalidatePkgSuffix = "internal/invalidate"

// opNamePattern is the WSDL do* operation convention: codegen emits
// one do-prefixed, upper-camel method per port-type operation.
var opNamePattern = regexp.MustCompile(`^do[A-Z][A-Za-z0-9]*$`)

func runEpochGraph(pass *lint.Pass) {
	info := pass.Pkg.Info

	// String constants declared at package scope, by value, so a bare
	// literal can be pointed at the constant that already names it.
	// Collected across the whole package before any file is checked.
	constByValue := make(map[string]string)
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		v := constant.StringVal(c.Val())
		if prev, ok := constByValue[v]; !ok || name < prev {
			constByValue[v] = name
		}
	}

	// Per-graph op sets: first declaration position by operation value,
	// keyed by the receiver variable, used for duplicate and
	// read/write-conflict reporting. Tests legitimately build many
	// independent graphs declaring the same operations; only entries on
	// the same graph conflict. Files are walked in load order, which
	// Run keeps deterministic.
	reads := make(map[types.Object]map[string]token.Pos)
	writes := make(map[types.Object]map[string]token.Pos)

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method := graphMethod(info, call)
			if method == "" || len(call.Args) == 0 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			tv, ok := info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"operation name passed to Graph.%s must be a compile-time string constant; a dynamic name cannot be audited against the WSDL operation set", method)
				return true
			}
			op := constant.StringVal(tv.Value)

			if lit, ok := arg.(*ast.BasicLit); ok {
				if name, ok := constByValue[op]; ok {
					fix := &lint.SuggestedFix{
						Message: "replace the literal with " + name,
						Edits:   []lint.TextEdit{pass.Replace(lit.Pos(), lit.End(), name)},
					}
					pass.ReportfFix(lit.Pos(), fix,
						"operation %q is already declared as constant %s; the graph entry must reference the constant so renames cannot desynchronize them", op, name)
				} else if !opNamePattern.MatchString(op) {
					pass.Reportf(lit.Pos(),
						"operation name %q does not follow the WSDL do* convention (doGetItem, doGoogleSearch, …); no generated operation can carry this name", op)
				} else {
					pass.Reportf(lit.Pos(),
						"inline operation name %q; declare it as a package-level constant and reference that in the graph entry", op)
				}
			} else if !opNamePattern.MatchString(op) {
				pass.Reportf(arg.Pos(),
					"operation constant %s = %q does not follow the WSDL do* convention (doGetItem, doGoogleSearch, …)", exprText(pass.Pkg.Fset, arg), op)
			}

			if recv := graphReceiver(info, call); recv != nil {
				if reads[recv] == nil {
					reads[recv] = make(map[string]token.Pos)
					writes[recv] = make(map[string]token.Pos)
				}
				switch method {
				case "Read":
					recordGraphOp(pass, reads[recv], writes[recv], "read", "write", op, arg.Pos())
				case "Write":
					recordGraphOp(pass, writes[recv], reads[recv], "write", "read", op, arg.Pos())
				}
			}
			return true
		})
	}

	for _, file := range pass.Pkg.Files {
		checkKeyspaceLiterals(pass, file)
	}
}

// graphMethod returns "Read" or "Write" when call is a method call on
// invalidate.Graph, "" otherwise.
func graphMethod(info *types.Info, call *ast.CallExpr) string {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || (fn.Name() != "Read" && fn.Name() != "Write") {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOrPointee(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Graph" {
		return ""
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !hasPathSuffix(pkg.Path(), invalidatePkgSuffix) {
		return ""
	}
	return fn.Name()
}

// graphReceiver resolves the variable a Graph method is called on, so
// declarations are grouped per graph. A receiver that is not a simple
// variable (a chained call, say) gets no duplicate tracking.
func graphReceiver(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return objOf(info, x)
	case *ast.SelectorExpr:
		return objOf(info, x.Sel)
	}
	return nil
}

// recordGraphOp registers op in own, reporting a duplicate declaration
// or a conflict with the opposite set.
func recordGraphOp(pass *lint.Pass, own, other map[string]token.Pos, ownKind, otherKind string, op string, pos token.Pos) {
	if prev, ok := own[op]; ok {
		pass.Reportf(pos,
			"duplicate %s-set declaration for operation %q (first declared at %s); the second silently replaces the first", ownKind, op, shortPos(pass, prev))
		return
	}
	if _, ok := other[op]; ok {
		pass.Reportf(pos,
			"operation %q is declared in both the read and the write set; a read-write operation's cache fills would be invalidated by its own writes", op)
	}
	own[op] = pos
}

// checkKeyspaceLiterals reports keyspace values built from inline
// string literals anywhere outside package-level const/var
// declarations.
func checkKeyspaceLiterals(pass *lint.Pass, file *ast.File) {
	info := pass.Pkg.Info
	for _, decl := range file.Decls {
		if g, ok := decl.(*ast.GenDecl); ok && (g.Tok == token.CONST || g.Tok == token.VAR) {
			// Package-level declarations are the sanctioned home for
			// keyspace names: KeyspaceAllItems = Keyspace("items") is
			// the pattern, not a violation.
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			tv, ok := info.Types[e]
			if !ok || tv.Type == nil || !isKeyspaceType(tv.Type) {
				return true
			}
			switch e := e.(type) {
			case *ast.BasicLit:
				pass.Reportf(e.Pos(),
					"inline keyspace literal %s; declare the keyspace as a package-level constant so every spelling has one source of truth", e.Value)
			case *ast.CallExpr:
				// A conversion Keyspace(expr): flag it when the operand
				// bottoms out in a literal (Keyspace("item:"+id) included
				// — the *prefix* should be the constant).
				if tv.IsType() || len(e.Args) != 1 {
					return true
				}
				if info.Types[e.Fun].IsType() && literalRooted(ast.Unparen(e.Args[0])) {
					pass.Reportf(e.Pos(),
						"keyspace built from an inline string literal; declare the keyspace (or its prefix) as a package-level constant")
					return false // the operand literal is this finding, not another
				}
			}
			return true
		})
	}
}

// isKeyspaceType reports whether t is invalidate.Keyspace.
func isKeyspaceType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Keyspace" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && hasPathSuffix(pkg.Path(), invalidatePkgSuffix)
}

// literalRooted reports whether e is a string literal or an expression
// whose leftmost leaf is one ("item:" + key).
func literalRooted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.BinaryExpr:
		return literalRooted(e.X)
	}
	return false
}

// hasPathSuffix reports whether path ends with suffix on a path-segment
// boundary ("repro/internal/invalidate" matches "internal/invalidate";
// "x/notinternal/invalidate" does not).
func hasPathSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}
