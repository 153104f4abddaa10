package checks

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint"
)

// xmlWriterScope is the default set of packages that assemble XML text
// by hand and therefore must route character data through the xmltext
// escaping helpers.
var xmlWriterScope = map[string]bool{
	"repro/internal/soap": true,
	"repro/internal/sax":  true,
}

// trustedNameRe matches the repository's markup-name convention: an
// identifier whose name says it carries an XML name, prefix, type
// reference, namespace declaration, or already-escaped text is trusted
// to be written raw. Everything else written into an XML buffer is
// character data and must be escaped.
var trustedNameRe = regexp.MustCompile(`(?i)(name|prefix|ref|decl|escaped|local)$`)

// XMLEscape enforces output hygiene in the hand-rolled XML writers: any
// string written into an XML buffer (by convention, a field `b` of type
// strings.Builder or bytes.Buffer on a writer/encoder struct), by
// WriteString or — for bytes appended in the buffer's free space —
// Write, must be one of
//
//   - a constant or string literal (markup the author wrote),
//   - the result of an xmltext escaping helper, strconv number/bool
//     formatting, or base64 encoding (cannot contain XML metacharacters),
//   - a String() rendering of a *Name/QName type, or an identifier
//     following the markup-name convention (…name, …prefix, …ref,
//     …decl, …escaped, …local) — trusted markup, not character data,
//   - a local variable assigned only from the above.
//
// Formatting directly into the buffer with fmt.Fprintf/Fprint is always
// flagged: fmt has no escaping-aware verbs. Raw writes the analyzer
// cannot prove clean (parser-provided comment/PI text, for example)
// must be validated by hand and suppressed with a reason.
func XMLEscape(scope func(pkgPath string) bool) *lint.Analyzer {
	if scope == nil {
		scope = func(p string) bool { return xmlWriterScope[p] }
	}
	return &lint.Analyzer{
		Name: "xmlescape",
		Doc: "string data written into XML output must flow through the xmltext " +
			"escaping helpers, not raw WriteString/fmt concatenation",
		Run: func(pass *lint.Pass) { runXMLEscape(pass, scope) },
	}
}

func runXMLEscape(pass *lint.Pass, scope func(string) bool) {
	if !scope(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			cl := &cleanliness{info: info, assigns: collectAssigns(info, fn.Body)}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkXMLWrite(pass, cl, call)
				return true
			})
		}
	}
}

// checkXMLWrite inspects one call for a dirty write into an XML buffer.
func checkXMLWrite(pass *lint.Pass, cl *cleanliness, call *ast.CallExpr) {
	info := cl.info
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// fmt.Fprintf(&x.b, ...) / fmt.Fprint(&x.b, ...): no escaping-aware
	// verbs exist, so formatting into the buffer is never allowed.
	if obj := calleeObject(info, call); obj != nil {
		if lint.ExportedFrom(obj, "fmt", "Fprintf", "Fprint", "Fprintln") {
			if len(call.Args) > 0 && isXMLBuffer(info, call.Args[0]) {
				pass.Reportf(call.Pos(),
					"fmt.%s into an XML buffer cannot escape; build the markup with xmltext helpers", obj.Name())
			}
			return
		}
	}
	// x.b.WriteString(arg) / x.b.Write(arg) on a writer struct's buffer
	// field.
	if (sel.Sel.Name != "WriteString" && sel.Sel.Name != "Write") || !isXMLBuffer(info, sel.X) || len(call.Args) != 1 {
		return
	}
	if !cl.clean(call.Args[0]) {
		pass.Reportf(call.Args[0].Pos(),
			"unescaped string written into XML output; route character data through xmltext escaping (trusted markup names are exempt by convention)")
	}
}

// isXMLBuffer reports whether e denotes (possibly via &) a field named b
// of type strings.Builder or bytes.Buffer — the repo's XML-writer
// convention.
func isXMLBuffer(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "b" {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	switch selection.Obj().Type().String() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// cleanliness decides whether an expression is safe to write raw into
// XML output.
type cleanliness struct {
	info     *types.Info
	assigns  map[types.Object][]ast.Expr
	visiting map[types.Object]bool
}

func (c *cleanliness) clean(e ast.Expr) bool {
	e = ast.Unparen(e)
	// Constants — string literals and named consts — are markup the
	// author wrote.
	if tv, ok := c.info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return c.clean(e.X) && c.clean(e.Y)
	case *ast.CallExpr:
		return c.cleanCall(e)
	case *ast.Ident:
		if trustedNameRe.MatchString(e.Name) {
			return true
		}
		return c.cleanLocal(e)
	case *ast.SelectorExpr:
		return trustedNameRe.MatchString(e.Sel.Name)
	}
	return false
}

// cleanCall accepts the sanctioned formatters: xmltext helpers, strconv
// number/bool rendering, base64 encoding, and String() on name types.
func (c *cleanliness) cleanCall(call *ast.CallExpr) bool {
	obj := calleeObject(c.info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil {
		switch path := fn.Pkg().Path(); {
		case path == "xmltext" || strings.HasSuffix(path, "/xmltext"):
			return true
		case path == "strconv":
			return true
		case path == "encoding/base64":
			return true
		}
	}
	// name.String(), qname.String(): rendering an XML name type.
	if fn.Name() == "String" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := c.info.Types[sel.X]; ok {
				if n := namedOrPointee(tv.Type); n != nil && strings.Contains(n.Obj().Name(), "Name") {
					return true
				}
			}
		}
	}
	return false
}

// cleanLocal reports whether a local variable is only ever assigned
// clean values.
func (c *cleanliness) cleanLocal(id *ast.Ident) bool {
	obj := objOf(c.info, id)
	if obj == nil {
		return false
	}
	rhs, ok := c.assigns[obj]
	if !ok || len(rhs) == 0 {
		return false // parameter, field, or multi-value result: unknown origin
	}
	if c.visiting == nil {
		c.visiting = make(map[types.Object]bool)
	}
	if c.visiting[obj] {
		return false
	}
	c.visiting[obj] = true
	defer delete(c.visiting, obj)
	for _, e := range rhs {
		if !c.clean(e) {
			return false
		}
	}
	return true
}

// collectAssigns maps each local object to the expressions assigned to
// it via single-value assignments in the function body.
func collectAssigns(info *types.Info, body *ast.BlockStmt) map[types.Object][]ast.Expr {
	out := make(map[types.Object][]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := objOf(info, id); obj != nil {
						out[obj] = append(out[obj], st.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(st.Values) != len(st.Names) {
				return true
			}
			for i, name := range st.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = append(out[obj], st.Values[i])
				}
			}
		}
		return true
	})
	return out
}
