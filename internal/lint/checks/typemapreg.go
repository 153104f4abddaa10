package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// typeMapReg cross-checks a service package's RegisterTypes function
// against the struct types the SOAP codec will actually meet. The
// rpc/encoded encoder refuses any struct that is not bound to an XML
// qualified name in the typemap registry, and the failure only shows up
// at run time, on the first response that reaches the unregistered
// type. This analyzer makes it a compile-gate instead. In every package
// that declares
//
//	func RegisterTypes(reg *typemap.Registry) error
//
// it requires registration of
//
//   - every struct type reachable through the fields of a registered
//     struct (the encoder recurses into fields, so a missing nested
//     registration fails mid-envelope), and
//   - every exported struct in the package with a CloneDeep method
//     (Cloner support marks it a generated SOAP type).
func typeMapReg() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "typemapreg",
		Doc: "every struct a service package serializes via internal/soap must be " +
			"registered in its RegisterTypes function",
		Run: runTypeMapReg,
	}
}

func runTypeMapReg(pass *lint.Pass) {
	regFn := findRegisterTypes(pass.Pkg)
	if regFn == nil {
		return
	}
	info := pass.Pkg.Info

	// Struct type names registered inside RegisterTypes: every
	// composite literal of a struct type declared in this package that
	// appears in the body (the registration idiom passes T{} prototypes).
	registered := make(map[*types.TypeName]bool)
	ast.Inspect(regFn.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if named := localStruct(pass.Pkg.Types, info.Types[cl].Type); named != nil {
			registered[named.Obj()] = true
		}
		return true
	})

	// Required: field-reachable structs plus exported Cloner structs.
	required := make(map[*types.TypeName]bool)
	for tn := range registered {
		walkFieldStructs(pass.Pkg.Types, tn.Type(), required)
	}
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if localStruct(pass.Pkg.Types, tn.Type()) == nil {
			continue
		}
		if hasCloneDeep(tn.Type()) {
			required[tn] = true
		}
	}

	for tn := range required {
		if !registered[tn] {
			pass.Reportf(tn.Pos(),
				"struct %s is serialized via internal/soap (reachable from registered types or Cloner-tagged) but is not registered in RegisterTypes; the encoder will fail at run time",
				tn.Name())
		}
	}
}

// findRegisterTypes locates func RegisterTypes(reg *typemap.Registry)
// error.
func findRegisterTypes(pkg *lint.Package) *ast.FuncDecl {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Name.Name != "RegisterTypes" || fn.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Params().Len() != 1 {
				continue
			}
			n := namedOrPointee(sig.Params().At(0).Type())
			if n == nil || n.Obj().Name() != "Registry" || n.Obj().Pkg() == nil {
				continue
			}
			if strings.HasSuffix("/"+n.Obj().Pkg().Path(), "/typemap") {
				return fn
			}
		}
	}
	return nil
}

// localStruct returns the named type behind t when it is a struct (or
// pointer to struct) declared in pkg, else nil.
func localStruct(pkg *types.Package, t types.Type) *types.Named {
	named := namedOrPointee(t)
	if named == nil || named.Obj().Pkg() != pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// walkFieldStructs adds every package-local struct reachable through
// fields, slices, arrays, maps, and pointers of t to out.
func walkFieldStructs(pkg *types.Package, t types.Type, out map[*types.TypeName]bool) {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		walkFieldStructs(pkg, u.Elem(), out)
	case *types.Slice:
		walkFieldStructs(pkg, u.Elem(), out)
	case *types.Array:
		walkFieldStructs(pkg, u.Elem(), out)
	case *types.Map:
		walkFieldStructs(pkg, u.Elem(), out)
	case *types.Struct:
		if named := localStruct(pkg, t); named != nil {
			if out[named.Obj()] {
				return
			}
			if named.Obj().Pos() != 0 { // always true; keeps the walk rooted at declared types
				out[named.Obj()] = true
			}
		}
		for i := 0; i < u.NumFields(); i++ {
			walkFieldStructs(pkg, u.Field(i).Type(), out)
		}
	}
}

// hasCloneDeep reports whether T or *T declares a CloneDeep method.
func hasCloneDeep(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "CloneDeep" {
				return true
			}
		}
	}
	return false
}
