package checks

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// atomicMix enforces all-or-nothing atomicity on shared words: a
// struct field or package-level variable that is accessed through
// sync/atomic anywhere in its package — either via the package
// functions (atomic.AddInt64(&x, …)) or by being declared as one of
// the typed atomics (atomic.Int64, atomic.Value, …) — must never be
// read or written plainly. A single plain access re-introduces exactly
// the data race the atomic was bought to remove, and whether -race
// ever observes the interleaving is luck; the obs counters and the
// cache core's lock-free Stats/Len paths depend on this invariant
// holding everywhere, test code included. Plain reads and writes of
// integer atomics carry a SuggestedFix rewriting them to the matching
// atomic.LoadXxx/StoreXxx/AddXxx call.
//
// Sanctioned accesses: calling a typed atomic's methods, taking the
// address of an atomic (to pass it on), and naming a field in a
// composite literal (init-before-publish). The analysis is
// per-package: an exported atomic accessed plainly from another
// package is out of scope (none of the repository's atomics are).
func atomicMix() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "atomicmix",
		Doc: "a field or variable accessed through sync/atomic must never also be " +
			"accessed plainly; mixed access is a data race",
		Run: runAtomicMix,
	}
}

// atomicUse records how an object is accessed atomically: the type
// suffix of the sync/atomic functions applied to it ("Int64" from
// AddInt64; "" when only typed-atomic methods are involved) and one
// representative call position.
type atomicUse struct {
	family string
	pos    token.Pos
}

func runAtomicMix(pass *lint.Pass) {
	info := pass.Pkg.Info

	// Pass 1: collect the package's atomic words.
	//
	// funcAtomics: plain-typed objects passed by address to sync/atomic
	// package functions. ptrAtomics: pointer-typed variables passed
	// directly, whose pointee is the atomic word (flagging their plain
	// derefs). typedAtomics is implicit — any object whose type is (an
	// array of) a sync/atomic type, resolved on the fly in pass 2.
	funcAtomics := make(map[types.Object]atomicUse)
	ptrAtomics := make(map[types.Object]atomicUse)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := calleeObject(info, call).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // typed-atomic methods are handled structurally
			}
			use := atomicUse{family: atomicFamily(fn.Name()), pos: call.Pos()}
			switch arg := ast.Unparen(call.Args[0]).(type) {
			case *ast.UnaryExpr:
				if arg.Op == token.AND {
					if obj := addressedObject(info, arg.X); obj != nil {
						if prev, ok := funcAtomics[obj]; !ok || prev.family == "" {
							funcAtomics[obj] = use
						}
					}
				}
			case *ast.Ident:
				if obj := objOf(info, arg); obj != nil {
					if _, ok := ptrAtomics[obj]; !ok {
						ptrAtomics[obj] = use
					}
				}
			}
			return true
		})
	}

	// Pass 2: walk each file marking sanctioned occurrences, then
	// report every other appearance of an atomic word.
	for _, file := range pass.Pkg.Files {
		checkAtomicFile(pass, file, funcAtomics, ptrAtomics)
	}
}

// atomicFamily extracts the type suffix of a sync/atomic function name:
// AddInt64 → "Int64", CompareAndSwapUint32 → "Uint32", LoadPointer →
// "Pointer".
func atomicFamily(name string) string {
	for _, suffix := range []string{"Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer"} {
		if strings.HasSuffix(name, suffix) {
			return suffix
		}
	}
	return ""
}

// addressedObject resolves &expr's operand to the object whose word is
// taken: the field for &x.f, the variable for &v, the backing
// array/slice object for &a[i].
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(info, e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return objOf(info, e.Sel)
	case *ast.IndexExpr:
		return addressedObject(info, e.X)
	}
	return nil
}

// isAtomicType reports whether t is one of sync/atomic's typed
// atomics, or an array of them.
func isAtomicType(t types.Type) bool {
	if arr, ok := t.Underlying().(*types.Array); ok {
		return isAtomicType(arr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		// A *atomic.Int64 is deliberately not atomic here: copying the
		// pointer is safe, so plain uses of pointer variables are fine.
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// checkAtomicFile reports unsanctioned accesses to atomic words in one
// file.
func checkAtomicFile(pass *lint.Pass, file *ast.File, funcAtomics, ptrAtomics map[types.Object]atomicUse) {
	info := pass.Pkg.Info

	// allowed marks expression nodes whose appearance is sanctioned: a
	// typed atomic as a method receiver, any atomic behind &, and
	// sync/atomic call arguments. mark descends through index and paren
	// expressions so h.buckets[i].Add(1) sanctions h.buckets.
	allowed := make(map[ast.Node]bool)
	var mark func(e ast.Expr)
	mark = func(e ast.Expr) {
		allowed[e] = true
		switch e := e.(type) {
		case *ast.ParenExpr:
			mark(e.X)
		case *ast.IndexExpr:
			mark(e.X)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && tv.Type != nil && isAtomicType(tv.Type) {
					mark(sel.X)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(ast.Unparen(n.X))
			}
		case *ast.RangeStmt:
			// Index-only ranging over an array of atomics reads its
			// length, never the elements; `for i := range h.buckets` is
			// the idiomatic snapshot loop. A two-variable range would
			// copy each element and is still flagged.
			if n.Value == nil {
				if tv, ok := info.Types[n.X]; ok && tv.Type != nil && isAtomicType(tv.Type) {
					mark(ast.Unparen(n.X))
				}
			}
		}
		return true
	})

	// consumed suppresses the Ident visit for selectors and composite
	// literal keys handled (or exempted) at their parent node.
	consumed := make(map[*ast.Ident]bool)

	// Assignment statements get statement-level treatment so plain
	// writes can carry a Store/Add rewrite.
	fixedStmts := make(map[ast.Node]bool)

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						consumed[id] = true // init-before-publish
					}
				}
			}
		case *ast.AssignStmt:
			if fixedStmts[n] {
				return true
			}
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if obj, node := atomicOperand(info, n.Lhs[0], funcAtomics); obj != nil && !allowed[node] {
					use := funcAtomics[obj]
					fixedStmts[n] = true
					markIdents(n.Lhs[0], consumed)
					pass.ReportfFix(node.Pos(), atomicWriteFix(pass, file, n, use.family),
						"plain write to %s, which is accessed via sync/atomic elsewhere in this package; use atomic.Store%s/Add%s",
						atomicName(obj), use.family, use.family)
					return true
				}
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if consumed[n.Sel] {
				return true // owned by an enclosing assignment's write report
			}
			consumed[n.Sel] = true
			reportAtomicUse(pass, file, n, sel.Obj(), funcAtomics, allowed)
		case *ast.Ident:
			if consumed[n] {
				return true
			}
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			reportAtomicUse(pass, file, n, obj, funcAtomics, allowed)
		case *ast.StarExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if use, ok := ptrAtomics[obj]; ok {
						pass.Reportf(n.Pos(),
							"plain dereference of %s, whose pointee is accessed via sync/atomic elsewhere in this package; use atomic.Load%s/Store%s",
							obj.Name(), use.family, use.family)
					}
				}
			}
		}
		return true
	})
}

// atomicOperand reports whether e (an assignment LHS) resolves to a
// sync/atomic-function-accessed object, returning the object and the
// checked node.
func atomicOperand(info *types.Info, e ast.Expr, funcAtomics map[types.Object]atomicUse) (types.Object, ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if _, ok := funcAtomics[sel.Obj()]; ok {
				return sel.Obj(), e
			}
		}
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			if _, ok := funcAtomics[obj]; ok {
				return obj, e
			}
		}
	}
	return nil, nil
}

// markIdents adds every identifier in e to consumed, so the general
// walk does not re-report an occurrence the assignment handler owns.
func markIdents(e ast.Expr, consumed map[*ast.Ident]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			consumed[id] = true
		}
		return true
	})
}

// reportAtomicUse flags one occurrence of an atomic word outside the
// sanctioned contexts. Plain reads of integer atomics carry a Load
// rewrite.
func reportAtomicUse(pass *lint.Pass, file *ast.File, node ast.Expr, obj types.Object, funcAtomics map[types.Object]atomicUse, allowed map[ast.Node]bool) {
	if allowed[node] {
		return
	}
	if use, ok := funcAtomics[obj]; ok {
		var fix *lint.SuggestedFix
		if q, ok := atomicQualifier(file); ok && integerFamily(use.family) {
			fix = &lint.SuggestedFix{
				Message: "read through atomic.Load" + use.family,
				Edits: []lint.TextEdit{pass.Replace(node.Pos(), node.End(),
					q+".Load"+use.family+"(&"+exprText(pass.Pkg.Fset, node)+")")},
			}
		}
		pass.ReportfFix(node.Pos(), fix,
			"plain access of %s, which is accessed via sync/atomic elsewhere in this package (e.g. %s); use atomic.Load%s",
			atomicName(obj), shortPos(pass, use.pos), use.family)
		return
	}
	if v, ok := obj.(*types.Var); ok && isAtomicType(v.Type()) {
		// A typed atomic reached other than through its methods or &:
		// a value copy or reassignment, both of which smuggle the word
		// out of atomic discipline.
		pass.Reportf(node.Pos(),
			"%s is a typed sync/atomic value; access it only through its methods (copying or reassigning it races)",
			atomicName(obj))
	}
}

// atomicWriteFix rewrites `x.f = e` / `x.f += e` to the matching
// atomic store or add, or returns nil when no clean rewrite exists.
func atomicWriteFix(pass *lint.Pass, file *ast.File, n *ast.AssignStmt, family string) *lint.SuggestedFix {
	q, ok := atomicQualifier(file)
	if !ok || !integerFamily(family) {
		return nil
	}
	lhs := exprText(pass.Pkg.Fset, n.Lhs[0])
	rhs := exprText(pass.Pkg.Fset, n.Rhs[0])
	var repl, what string
	switch n.Tok {
	case token.ASSIGN:
		repl = q + ".Store" + family + "(&" + lhs + ", " + rhs + ")"
		what = "Store" + family
	case token.ADD_ASSIGN:
		repl = q + ".Add" + family + "(&" + lhs + ", " + rhs + ")"
		what = "Add" + family
	case token.SUB_ASSIGN:
		repl = q + ".Add" + family + "(&" + lhs + ", -(" + rhs + "))"
		what = "Add" + family
	default:
		return nil
	}
	return &lint.SuggestedFix{
		Message: "write through atomic." + what,
		Edits:   []lint.TextEdit{pass.Replace(n.Pos(), n.End(), repl)},
	}
}

// integerFamily reports whether a sync/atomic function family has
// Load/Store/Add forms the fixes can target.
func integerFamily(family string) bool {
	switch family {
	case "Int32", "Int64", "Uint32", "Uint64", "Uintptr":
		return true
	}
	return false
}

// atomicQualifier returns the name under which file imports
// sync/atomic ("atomic" unless renamed), or false when the file does
// not import it (or dot-imports it), in which case no fix is offered.
func atomicQualifier(file *ast.File) (string, bool) {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "sync/atomic" {
			continue
		}
		if imp.Name == nil {
			return "atomic", true
		}
		if imp.Name.Name == "." || imp.Name.Name == "_" {
			return "", false
		}
		return imp.Name.Name, true
	}
	return "", false
}

// atomicName renders an object for diagnostics: "field f" or
// "variable v".
func atomicName(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return "field " + obj.Name()
	}
	return "variable " + obj.Name()
}

// shortPos renders a position as file:line with the directory
// stripped — enough to locate the representative atomic access.
func shortPos(pass *lint.Pass, pos token.Pos) string {
	p := pass.Pkg.Fset.Position(pos)
	file := p.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return file + ":" + itoa(p.Line)
}

// itoa is strconv.Itoa for small positives, avoiding the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// exprText renders a node back to source text for fix construction.
func exprText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}
