// Package checks holds the repository's domain analyzers: the
// concurrency discipline of the resilience layer (lockguard,
// clockinject), context propagation (ctxflow), XML output hygiene
// (xmlescape), the hit path's allocation budget (hotpath) and the
// exported surface (api). All() returns the suite the wscachelint
// driver runs.
package checks

import (
	"go/ast"
	"go/types"
)

// taint is a conservative intraprocedural value-flow analysis: starting
// from seed objects (typically function parameters), it marks every
// local that may alias or be derived from a seed. ctxflow uses it to
// answer "is this value derived from the context parameter".
type taint struct {
	info    *types.Info
	tainted map[types.Object]bool
}

// newTaint seeds the analysis.
func newTaint(info *types.Info, seeds ...types.Object) *taint {
	t := &taint{info: info, tainted: make(map[types.Object]bool)}
	for _, s := range seeds {
		if s != nil {
			t.tainted[s] = true
		}
	}
	return t
}

// propagate runs assignments in body to a fixpoint.
func (t *taint) propagate(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				changed = t.assign(st.Lhs, st.Rhs) || changed
			case *ast.ValueSpec:
				if len(st.Values) > 0 {
					lhs := make([]ast.Expr, len(st.Names))
					for i, name := range st.Names {
						lhs[i] = name
					}
					changed = t.assign(lhs, st.Values) || changed
				}
			case *ast.RangeStmt:
				if t.expr(st.X) {
					changed = t.mark(st.Key) || changed
					changed = t.mark(st.Value) || changed
				}
			}
			return true
		})
	}
}

// assign propagates one (possibly multi-value) assignment, reporting
// whether any new object became tainted.
func (t *taint) assign(lhs, rhs []ast.Expr) bool {
	changed := false
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			if t.expr(rhs[i]) {
				changed = t.mark(lhs[i]) || changed
			}
		}
	case len(rhs) == 1:
		// x, y := f()  or  v, ok := p.(T): comma-ok's boolean is
		// harmless to over-taint, so taint every LHS.
		if t.expr(rhs[0]) {
			for _, l := range lhs {
				changed = t.mark(l) || changed
			}
		}
	}
	return changed
}

// mark taints the object behind an assignable expression.
func (t *taint) mark(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := t.info.Defs[id]
	if obj == nil {
		obj = t.info.Uses[id]
	}
	if obj == nil || t.tainted[obj] {
		return false
	}
	t.tainted[obj] = true
	return true
}

// expr reports whether e may carry taint.
func (t *taint) expr(e ast.Expr) bool {
	// A value whose type cannot carry a reference (bool, numerics,
	// immutable strings, aggregates thereof) cannot alias anything, no
	// matter how it was derived.
	if tv, ok := t.info.Types[e]; ok && tv.Type != nil && refFree(tv.Type) {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := t.info.Uses[e]
		if obj == nil {
			obj = t.info.Defs[e]
		}
		return obj != nil && t.tainted[obj]
	case *ast.SelectorExpr:
		// A field or method of a tainted value is reachable from it.
		return t.expr(e.X)
	case *ast.ParenExpr:
		return t.expr(e.X)
	case *ast.StarExpr:
		return t.expr(e.X)
	case *ast.UnaryExpr:
		return t.expr(e.X)
	case *ast.IndexExpr:
		return t.expr(e.X)
	case *ast.SliceExpr:
		return t.expr(e.X)
	case *ast.TypeAssertExpr:
		return t.expr(e.X)
	case *ast.BinaryExpr:
		return t.expr(e.X) || t.expr(e.Y)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.expr(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return t.call(e)
	default:
		return false
	}
}

// call decides whether a call expression's results carry taint.
func (t *taint) call(call *ast.CallExpr) bool {
	// Type conversions preserve aliasing.
	if tv, ok := t.info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && t.expr(call.Args[0])
	}
	if obj := calleeObject(t.info, call); obj != nil {
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new":
				return false
			}
			// append, copy, etc: fall through to argument scan.
		}
	}
	// A call with a tainted argument or receiver may return something
	// reachable from it.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && t.expr(sel.X) {
		return true
	}
	for _, a := range call.Args {
		if t.expr(a) {
			return true
		}
	}
	return false
}

// calleeObject resolves the object a call invokes: the *types.Func for
// direct and method calls, a *types.Builtin for builtins, nil for
// indirect calls through variables.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// objOf resolves an identifier to its object via Uses or Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// refFree reports whether values of type t cannot carry a mutable
// reference: basic types (strings are immutable in Go) and arrays or
// structs built only from such types.
func refFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Array:
		return refFree(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !refFree(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}

// namedOrPointee unwraps pointers and returns the named type behind t,
// or nil.
func namedOrPointee(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
