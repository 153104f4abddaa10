package checks

import (
	"go/ast"
	"go/build"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/lint"
)

// api holds the exported surface to what the tree calls. It reports,
// at the declaration, every exported top-level identifier and every
// exported method of an exported type that no non-test file outside
// its package references. The message says which way out fits: a name
// only its own package uses is unexported, a name nothing but tests
// uses is deleted, and a name another package's tests need keeps a
// //lint:ignore api waiver that names the test.
//
// A method whose type implements an interface declaring it counts as
// used: callers reach it through the interface, which names no
// concrete method. Package main, _test.go files and generated files
// (the standard "Code generated ... DO NOT EDIT." header) declare
// nothing the check reports; their references still count.
//
// References are counted over every package the run loaded, so the
// check reports only when the run loaded every package of its tree:
// the module, or for a lint fixture the testdata/src/<name> directory
// it lives in. A run over part of the tree cannot see every caller,
// and reports nothing.
func api() *lint.Analyzer {
	var mu sync.Mutex
	var idx *apiIndex
	return &lint.Analyzer{
		Name: "api",
		Doc: "every exported identifier and exported method must be referenced " +
			"by a non-test file outside its package",
		Run: func(pass *lint.Pass) {
			mu.Lock()
			if idx == nil || !idx.builtFrom(pass.Pkgs) {
				idx = newAPIIndex(pass.Pkgs)
			}
			i := idx
			mu.Unlock()
			runAPI(pass, i)
		},
	}
}

// Reference kinds, a bit set per key.
const (
	refOutside     = 1 << iota // a non-test file of another package
	refInside                  // a non-test file of the declaring package
	refOutsideTest             // a test file of another package
)

// apiIndex is the reference index of one run, shared by every package's
// pass.
type apiIndex struct {
	pkgs  []*lint.Package
	whole bool           // the run loaded every package of its tree
	refs  map[string]int // by objKey, a set of ref* bits
	// ifaces holds each method-bearing interface as method name →
	// signature.
	ifaces []map[string]string
}

func (x *apiIndex) builtFrom(pkgs []*lint.Package) bool {
	return len(x.pkgs) == len(pkgs) && len(pkgs) > 0 && x.pkgs[0] == pkgs[0]
}

func newAPIIndex(pkgs []*lint.Package) *apiIndex {
	x := &apiIndex{pkgs: pkgs, whole: loadedWholeTree(pkgs), refs: make(map[string]int)}
	if !x.whole {
		return x
	}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		ms := make(map[string]string, it.NumMethods())
		for i := 0; i < it.NumMethods(); i++ {
			ms[it.Method(i).Name()] = sigString(it.Method(i))
		}
		x.ifaces = append(x.ifaces, ms)
	}
	addIface(types.Universe.Lookup("error").Type())
	// errors.Is, As and Unwrap call these through interfaces declared
	// inside their bodies, which export data does not carry.
	x.ifaces = append(x.ifaces,
		map[string]string{"Unwrap": "()(error,)"},
		map[string]string{"Unwrap": "()([]error,)"},
		map[string]string{"Is": "(error,)(bool,)"})
	visited := make(map[string]bool) // package paths
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if visited[tp.Path()] {
			return
		}
		visited[tp.Path()] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}

	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				addIface(tv.Type) // a literal; named ones come with their package
			}
		}
		for _, f := range p.Files {
			test := p.TestFile(f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.Info.Uses[id]
				if obj == nil || obj.Pkg() == nil || !obj.Exported() {
					return true
				}
				key := objKey(obj)
				switch {
				case key == "":
				case obj.Pkg().Path() == p.Path:
					if !test {
						x.refs[key] |= refInside
					}
				case test:
					x.refs[key] |= refOutsideTest
				default:
					x.refs[key] |= refOutside
				}
				return true
			})
		}
	}
	return x
}

// implements reports whether named, or a pointer to it, implements an
// interface that declares method. Signatures are compared as strings
// qualified by package path, because each package of a run is
// type-checked on its own and shares no type objects with the others.
func (x *apiIndex) implements(named *types.Named, method string) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	have := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj().(*types.Func)
		have[fn.Name()] = sigString(fn)
	}
	for _, it := range x.ifaces {
		if _, ok := it[method]; !ok {
			continue
		}
		all := true
		for name, sig := range it {
			if have[name] != sig {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func runAPI(pass *lint.Pass, x *apiIndex) {
	if !x.whole || pass.Pkg.Types.Name() == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.TestFile(f) || ast.IsGenerated(f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil {
					named := namedOrPointee(fn.Signature().Recv().Type())
					if named == nil || !named.Obj().Exported() || x.implements(named, name) {
						continue
					}
					name = named.Obj().Name() + "." + name
				}
				x.report(pass, d.Name, fn, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var ids []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					}
					for _, id := range ids {
						if obj := info.Defs[id]; obj != nil && id.IsExported() {
							x.report(pass, id, obj, id.Name)
						}
					}
				}
			}
		}
	}
}

// report flags obj, declared at id, unless a non-test file of another
// package references it.
func (x *apiIndex) report(pass *lint.Pass, id *ast.Ident, obj types.Object, name string) {
	refs := x.refs[objKey(obj)]
	pkg := pass.Pkg.Types.Name()
	switch {
	case refs&refOutside != 0:
	case refs&refOutsideTest != 0:
		pass.Reportf(id.Pos(), "exported %s is used outside package %s only by tests; unexport it, or waive it naming the test that needs it", name, pkg)
	case refs&refInside != 0:
		pass.Reportf(id.Pos(), "exported %s is used only inside package %s; unexport it", name, pkg)
	default:
		pass.Reportf(id.Pos(), "exported %s is used by no non-test code; delete it", name)
	}
}

// objKey names a package-level object or a method the same way in
// every package of a run: "path.Name" or "path.Recv.Method". It is ""
// for anything else (fields, locals).
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			named := namedOrPointee(recv.Type())
			if named == nil {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// sigString renders a method's parameter and result types, qualified
// by package path; names and the receiver are left out.
func sigString(fn *types.Func) string {
	sig := fn.Signature()
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// loadedWholeTree reports whether pkgs are every package of the one
// tree they belong to (treeRoot): every directory below it that holds
// a buildable package, testdata, vendor, hidden and nested-module
// directories aside, was loaded.
func loadedWholeTree(pkgs []*lint.Package) bool {
	if len(pkgs) == 0 {
		return false
	}
	root := treeRoot(pkgs[0].Dir)
	loaded := make(map[string]bool)
	for _, p := range pkgs {
		if treeRoot(p.Dir) != root {
			return false
		}
		loaded[p.Dir] = true
	}
	whole := true
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := build.ImportDir(path, 0); err == nil && !loaded[path] {
			whole = false
			return filepath.SkipAll
		}
		return nil
	})
	return err == nil && whole
}

// treeRoot is the root of the tree dir belongs to: the directory
// holding go.mod, or for a lint fixture (a package under
// testdata/src/<name>, which no module wildcard loads and no package
// outside it imports) testdata/src/<name>.
func treeRoot(dir string) string {
	const fixtures = "/testdata/src/"
	slash := filepath.ToSlash(dir)
	if i := strings.Index(slash, fixtures); i >= 0 {
		rest := slash[i+len(fixtures):]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			rest = rest[:j]
		}
		return filepath.FromSlash(slash[:i+len(fixtures)] + rest)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			return dir
		}
	}
}
