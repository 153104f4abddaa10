package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// aliasCopy enforces the paper's call-by-copy invariant (Section 3.1)
// on value representations: a ValueStore implementation's Store method
// may not hand the cache a reference reachable from the invocation
// context, and its Load method may not hand the client a reference
// reachable from the stored payload — unless the value first passed
// through a sanctioned deep-copy or decode boundary (deepcopy.*,
// CloneDeep, gobEncode/gobDecode, sax.Record/Compact,
// dom.Parse/FromEvents, Decode*, or delegation to another store's
// Store/Load). The explicit pass-by-reference representation (refStore)
// is the one documented exception and is exempt by name.
//
// The analysis is a conservative intraprocedural alias propagation: it
// applies to every package that declares a ValueStore interface (an
// interface named "ValueStore" with Store and Load methods) and checks
// each concrete implementation declared alongside it, and each type
// such an implementation embeds (its promoted Store or Load is the
// implementation's own).
func aliasCopy() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "aliascopy",
		Doc: "ValueStore implementations must preserve call-by-copy: Store/Load may not " +
			"return or retain references reachable from their argument without a deep copy",
		Run: runAliasCopy,
	}
}

// aliasLaunders are the sanctioned copy/decode boundaries, keyed by
// callee. Package functions match on (import-path suffix, name);
// methods match on name alone.
var aliasLaunderFuncs = map[string][]string{
	"deepcopy": nil, // every function of the deep-copy package
	"sax":      {"Record", "Compact"},
	"dom":      {"Parse", "FromEvents"},
}

var aliasLaunderMethods = map[string]bool{
	"CloneDeep": true, // the generated deep-clone method
	"Store":     true, // delegation: the delegate is checked at its own definition
	"Load":      true,
	"Marshal":   true, // serialization writes a fresh byte slice
	"Unmarshal": true, // deserialization builds a fresh object graph
}

func runAliasCopy(pass *lint.Pass) {
	iface := valueStoreInterface(pass.Pkg.Types)
	if iface == nil {
		return
	}
	launders := func(call *ast.CallExpr) bool { return aliasLaunders(pass.Pkg, call) }
	embedded := storeEmbeds(pass.Pkg.Types, iface)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if fn.Name.Name != "Store" && fn.Name.Name != "Load" {
				continue
			}
			recv := recvObject(pass.Pkg.Info, fn)
			if recv == nil {
				continue
			}
			named := namedOrPointee(recv.Type())
			if named == nil || !(implementsValueStore(named, iface) || embedded[named.Obj()]) {
				continue
			}
			if named.Obj().Name() == "refStore" {
				continue // the documented pass-by-reference exception
			}
			checkStoreMethod(pass, fn, recv, launders)
		}
	}
}

// checkStoreMethod runs the alias propagation over one Store or Load
// body and reports tainted returns and tainted stores into receiver
// state.
func checkStoreMethod(pass *lint.Pass, fn *ast.FuncDecl, recv types.Object, launders func(*ast.CallExpr) bool) {
	info := pass.Pkg.Info
	var seeds []types.Object
	for _, p := range fn.Type.Params.List {
		for _, name := range p.Names {
			seeds = append(seeds, info.Defs[name])
		}
	}
	tt := newTaint(info, launders, seeds...)
	tt.propagate(fn.Body)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are not this method's return path
		case *ast.ReturnStmt:
			// Only the first result is the cached/returned value; the
			// size and error results cannot leak a stored reference.
			if len(n.Results) > 0 && tt.expr(n.Results[0]) {
				pass.Reportf(n.Results[0].Pos(),
					"%s.%s returns a value aliasing its argument without a deep copy (call-by-copy, paper §3.1); route it through deepcopy/CloneDeep/a decoder or register the type as pass-by-reference",
					recvTypeName(recv), fn.Name.Name)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); !ok || objOf(info, id) != recv {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else {
					rhs = n.Rhs[0]
				}
				if tt.expr(rhs) {
					pass.Reportf(n.Pos(),
						"%s.%s stores a reference reachable from its argument into receiver state without a deep copy (call-by-copy, paper §3.1)",
						recvTypeName(recv), fn.Name.Name)
				}
			}
		}
		return true
	})
}

// aliasLaunders reports whether a call is one of the sanctioned
// deep-copy or decode boundaries.
func aliasLaunders(pkg *lint.Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	name := fn.Name()
	if aliasLaunderMethods[name] || strings.HasPrefix(name, "Decode") {
		return true
	}
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	// The gob helpers live beside the stores in the same package.
	if path == pkg.Path && (name == "gobEncode" || name == "gobDecode") {
		return true
	}
	for suffix, names := range aliasLaunderFuncs {
		if path != suffix && !strings.HasSuffix(path, "/"+suffix) {
			continue
		}
		if names == nil {
			return true
		}
		for _, n := range names {
			if n == name {
				return true
			}
		}
	}
	return false
}

// valueStoreInterface finds an interface named ValueStore with Store
// and Load methods in the package scope.
func valueStoreInterface(pkg *types.Package) *types.Interface {
	obj := pkg.Scope().Lookup("ValueStore")
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var hasStore, hasLoad bool
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Store":
			hasStore = true
		case "Load":
			hasLoad = true
		}
	}
	if !hasStore || !hasLoad {
		return nil
	}
	return iface
}

// implementsValueStore reports whether T or *T satisfies the interface.
func implementsValueStore(named *types.Named, iface *types.Interface) bool {
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// storeEmbeds returns the types that the package's ValueStore
// implementations embed.
func storeEmbeds(pkg *types.Package, iface *types.Interface) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named := namedOrPointee(tn.Type())
		if named == nil || !implementsValueStore(named, iface) {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if n := namedOrPointee(st.Field(i).Type()); st.Field(i).Embedded() && n != nil {
					out[n.Obj()] = true
				}
			}
		}
	}
	return out
}

// recvTypeName names the receiver's type for diagnostics.
func recvTypeName(recv types.Object) string {
	if n := namedOrPointee(recv.Type()); n != nil {
		return n.Obj().Name()
	}
	return recv.Type().String()
}
