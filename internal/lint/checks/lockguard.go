package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint"
)

// lockGuard enforces the repository's mutex-grouping convention: inside
// a struct, a `mu sync.Mutex` (or sync.RWMutex) field guards the
// contiguous run of fields declared directly below it — the blank line
// ends the group. Any function that reads or writes a guarded field
// must either lock that mutex itself (x.mu.Lock / x.mu.RLock anywhere
// in its body) or be explicitly marked as called with the lock held:
// a name ending in "Locked", or a doc comment saying "callers hold" /
// "caller holds". Construction through composite literals is exempt
// (init-before-publish), as is the mutex field itself.
func lockGuard() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "lockguard",
		Doc: "fields grouped under a mu sync.Mutex/RWMutex must only be accessed by " +
			"functions that lock that mutex or are documented as called with it held",
		Run: runLockGuard,
	}
}

// lockGroup is one mutex and the set of field objects it guards.
type lockGroup struct {
	mutexField string
	fields     map[types.Object]bool
}

// heldDocRe matches the repo's "callers hold c.mu" style annotations.
var heldDocRe = regexp.MustCompile(`(?i)\bcallers?\s+(must\s+)?holds?\b`)

func runLockGuard(pass *lint.Pass) {
	groups := collectLockGroups(pass.Pkg)
	if len(groups) == 0 {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") || heldDocRe.MatchString(lint.DocText(fn)) {
				continue
			}
			checkLockUse(pass, fn, groups)
		}
	}
}

// collectLockGroups scans struct declarations for mutex-guarded field
// groups, keyed by the struct's named type.
func collectLockGroups(pkg *lint.Package) map[*types.Named][]lockGroup {
	groups := make(map[*types.Named][]lockGroup)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj := pkg.Info.Defs[ts.Name]
			if obj == nil {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			if gs := structLockGroups(pkg, st); len(gs) > 0 {
				groups[named] = gs
			}
			return true
		})
	}
	return groups
}

// structLockGroups finds the guarded groups of one struct literal type.
func structLockGroups(pkg *lint.Package, st *ast.StructType) []lockGroup {
	var out []lockGroup
	var cur *lockGroup
	prevEnd := -2 // sentinel: the first field never continues a group
	for _, field := range st.Fields.List {
		start := pkg.Fset.Position(fieldStart(field)).Line
		contiguous := start <= prevEnd+1
		prevEnd = pkg.Fset.Position(field.End()).Line

		if name, ok := mutexField(pkg.Info, field); ok {
			out = append(out, lockGroup{mutexField: name, fields: make(map[types.Object]bool)})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil {
			continue
		}
		if !contiguous {
			cur = nil // blank line: the group ended
			continue
		}
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				cur.fields[obj] = true
			}
		}
	}
	// Drop groups that guard nothing.
	kept := out[:0]
	for _, g := range out {
		if len(g.fields) > 0 {
			kept = append(kept, g)
		}
	}
	return kept
}

// fieldStart is the field's doc comment position when present, so a
// documented field still counts as contiguous with the line above its
// doc.
func fieldStart(f *ast.Field) token.Pos {
	if f.Doc != nil {
		return f.Doc.Pos()
	}
	return f.Pos()
}

// mutexField reports whether a struct field is a sync.Mutex or
// sync.RWMutex, returning its name ("Mutex"/"RWMutex" when embedded).
func mutexField(info *types.Info, f *ast.Field) (string, bool) {
	tv, ok := info.Types[f.Type]
	if !ok {
		return "", false
	}
	switch tv.Type.String() {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", false
	}
	if len(f.Names) > 0 {
		return f.Names[0].Name, true
	}
	n := namedOrPointee(tv.Type)
	if n == nil {
		return "", false
	}
	return n.Obj().Name(), true
}

// checkLockUse reports guarded-field accesses in fn that are not
// covered by a lock acquisition on the owning mutex.
func checkLockUse(pass *lint.Pass, fn *ast.FuncDecl, groups map[*types.Named][]lockGroup) {
	info := pass.Pkg.Info

	// locked holds (root object, mutex field name) pairs the function
	// acquires anywhere in its body — the check is flow-insensitive.
	type rootMutex struct {
		root types.Object
		mu   string
	}
	locked := make(map[rootMutex]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		root, ok := ast.Unparen(muSel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := objOf(info, root); obj != nil {
			locked[rootMutex{obj, muSel.Sel.Name}] = true
		}
		return true
	})

	reported := make(map[types.Object]bool) // one report per field per function
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		root, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		rootObj := objOf(info, root)
		if rootObj == nil {
			return true
		}
		named := namedOrPointee(rootObj.Type())
		if named == nil {
			return true
		}
		// Groups are keyed by the declared struct and its declared
		// fields; an access through an instantiated generic type (the
		// engine's shard[V]) resolves to copies of both.
		named = named.Origin()
		fieldObj := selection.Obj()
		if v, ok := fieldObj.(*types.Var); ok {
			fieldObj = v.Origin()
		}
		for _, g := range groups[named] {
			if !g.fields[fieldObj] || reported[fieldObj] {
				continue
			}
			if !locked[rootMutex{rootObj, g.mutexField}] {
				reported[fieldObj] = true
				pass.Reportf(sel.Sel.Pos(),
					"%s accesses %s.%s, guarded by %s.%s, without locking it (name the function *Locked or document \"callers hold %s.%s\" if the lock is held on entry)",
					fn.Name.Name, named.Obj().Name(), fieldObj.Name(),
					root.Name, g.mutexField, root.Name, g.mutexField)
			}
		}
		return true
	})
}
