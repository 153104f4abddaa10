package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// hotPath audits functions annotated //lint:hotpath — the cache hit
// path, key generation, and the observability record path — for
// constructs that allocate or otherwise defeat the repository's
// 0 allocs/op budget on those routes:
//
//   - any call into fmt (reflection-driven formatting; Sprintf of a
//     lone constant carries a fix replacing the call with the string);
//   - non-constant string concatenation (each + allocates);
//   - boxing a non-pointer concrete value into an interface, whether
//     by conversion or by argument passing (the value escapes to the
//     heap);
//   - closures capturing enclosing locals (the captured variables
//     escape, and the closure header itself may allocate);
//   - defer inside a loop (deferred frames accumulate until return);
//   - acquiring a sync.Mutex or sync.RWMutex (a contended lock turns
//     the lock-free replay path into a serialization point; hot-path
//     state must be immutable, atomic, or pooled — sync.Pool is fine,
//     its fast path is per-P and lock-free).
//
// The annotation is a contract, not a hint: benchmarks guard the
// aggregate allocs/op number, and this analyzer points at the exact
// expression when the number regresses. Deliberate exceptions — an
// error path that formats only after the hot path has already been
// abandoned — carry a //lint:ignore hotpath with the reasoning.
func hotPath() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "hotpath",
		Doc: "functions annotated //lint:hotpath must not call fmt, concatenate " +
			"strings, box values into interfaces, capture locals in closures, " +
			"defer in loops, or acquire mutexes",
		Run: runHotPath,
	}
}

func runHotPath(pass *lint.Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !lint.HasDirective(fn, "hotpath") {
				continue
			}
			checkHotFunc(pass, file, fn)
		}
	}
}

func checkHotFunc(pass *lint.Pass, file *ast.File, fn *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Loop body ranges, so defers can be flagged only inside them, and
	// inner nodes of string-concat chains, so a+b+c reports once at the
	// outermost +.
	type posRange struct{ lo, hi token.Pos }
	var loops []posRange
	innerConcat := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, posRange{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, posRange{n.Body.Pos(), n.Body.End()})
		case *ast.BinaryExpr:
			if isStringConcat(info, n) {
				if x, ok := ast.Unparen(n.X).(*ast.BinaryExpr); ok && isStringConcat(info, x) {
					innerConcat[x] = true
				}
				if y, ok := ast.Unparen(n.Y).(*ast.BinaryExpr); ok && isStringConcat(info, y) {
					innerConcat[y] = true
				}
			}
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, r := range loops {
			if r.lo <= pos && pos < r.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, file, fn, n)
		case *ast.BinaryExpr:
			if isStringConcat(info, n) && !innerConcat[n] {
				pass.Reportf(n.OpPos,
					"non-constant string concatenation in hot-path function %s allocates; build into a pooled buffer instead", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if tv, ok := info.Types[n.Lhs[0]]; ok && tv.Type != nil && isStringType(tv.Type) {
					pass.Reportf(n.TokPos,
						"string += in hot-path function %s allocates on every append; build into a pooled buffer instead", fn.Name.Name)
				}
			}
		case *ast.DeferStmt:
			if inLoop(n.Pos()) {
				pass.Reportf(n.Pos(),
					"defer inside a loop in hot-path function %s accumulates a frame per iteration; hoist it or call directly", fn.Name.Name)
			}
		case *ast.FuncLit:
			if name, ok := capturesLocal(info, fn, n); ok {
				pass.Reportf(n.Pos(),
					"closure in hot-path function %s captures %s; the capture forces a heap allocation — pass values explicitly", fn.Name.Name, name)
			}
			return false // the closure body runs later; its own cost is charged to the capture
		}
		return true
	})
}

// checkHotCall flags fmt calls and interface-boxing arguments or
// conversions in one call expression.
func checkHotCall(pass *lint.Pass, file *ast.File, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Pkg.Info

	if obj := calleeObject(info, call); obj != nil {
		if fobj, ok := obj.(*types.Func); ok && isMutexAcquire(fobj) {
			pass.Reportf(call.Pos(),
				"%s.%s in hot-path function %s serializes the lock-free path under contention; use immutable state, atomics, or a sync.Pool", mutexRecvName(fobj), fobj.Name(), fn.Name.Name)
			return
		}
		// Only fmt's package-level formatting functions reflect; a
		// method declared on a fmt interface (Stringer.String) is the
		// dynamic type's own code.
		if fobj, ok := obj.(*types.Func); ok && fobj.Pkg() != nil && fobj.Pkg().Path() == "fmt" &&
			fobj.Type().(*types.Signature).Recv() == nil {
			var fix *lint.SuggestedFix
			if fobj.Name() == "Sprintf" && len(call.Args) == 1 {
				if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
					fix = &lint.SuggestedFix{
						Message: "the format string has no verbs; use it directly",
						Edits:   []lint.TextEdit{pass.Replace(call.Pos(), call.End(), lit.Value)},
					}
				}
			}
			pass.ReportfFix(call.Pos(), fix,
				"fmt.%s in hot-path function %s formats through reflection and allocates; restrict fmt to error paths under //lint:ignore", fobj.Name(), fn.Name.Name)
			return
		}
	}

	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion: T(x) where T is an interface boxes x.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"conversion to interface in hot-path function %s boxes a non-pointer value onto the heap", fn.Name.Name)
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // a spread slice is passed as-is, nothing boxes
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(info, arg) {
			pass.Reportf(arg.Pos(),
				"argument boxes a non-pointer value into an interface parameter in hot-path function %s", fn.Name.Name)
		}
	}
}

// isMutexAcquire reports whether fobj is a lock-acquiring method of
// sync.Mutex, sync.RWMutex, or the sync.Locker interface. Unlock is
// deliberately not matched — an acquisition is always upstream of it
// and one diagnostic per lock reads better than two — and sync.Pool
// stays exempt: its Get/Put fast path is per-P and lock-free.
func isMutexAcquire(fobj *types.Func) bool {
	switch fobj.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
	default:
		return false
	}
	return mutexRecvName(fobj) != ""
}

// mutexRecvName returns the sync lock type fobj is declared on
// ("sync.Mutex", "sync.RWMutex", "sync.Locker"), or "" for any other
// receiver.
func mutexRecvName(fobj *types.Func) string {
	recv := fobj.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Locker":
		return "sync." + obj.Name()
	}
	return ""
}

// boxes reports whether passing arg to an interface-typed slot heap-
// allocates: a concrete non-pointer value does; pointers, interfaces,
// and nil do not.
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		// One-word reference kinds store directly in the interface.
		return false
	}
	return true
}

// capturesLocal reports whether lit references a variable declared in
// fn but outside lit (a captured local, parameter, or receiver),
// returning one such name for the diagnostic.
func capturesLocal(info *types.Info, fn *ast.FuncDecl, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		declaredInFn := pos >= fn.Pos() && pos < fn.End()
		declaredInLit := pos >= lit.Pos() && pos < lit.End()
		if declaredInFn && !declaredInLit {
			name = v.Name()
			return false
		}
		return true
	})
	return name, name != ""
}

// isStringConcat reports whether b is a + over strings whose result is
// not a compile-time constant.
func isStringConcat(info *types.Info, b *ast.BinaryExpr) bool {
	if b.Op != token.ADD {
		return false
	}
	tv, ok := info.Types[b]
	return ok && tv.Type != nil && isStringType(tv.Type) && tv.Value == nil
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
