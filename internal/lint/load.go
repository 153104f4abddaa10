package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package under analysis. Test
// files are included: for a package with in-package _test.go files the
// loader analyzes the test-augmented variant (`go list -test`'s
// "pkg [pkg.test]"), and an external test package ("pkg_test") loads
// as a package of its own. The invariants the analyzers enforce are
// mostly about library and binary code, but test code holds cache
// state and goroutines too — a data race in chaos_test.go is still a
// data race. Analyzers whose invariant genuinely stops at the test
// boundary (tests may mint contexts and read wall clocks) skip files
// for which TestFile reports true.
type Package struct {
	// Path is the package import path. For a test-augmented variant it
	// is the base package's path ("repro/internal/core", not
	// "repro/internal/core [repro/internal/core.test]"), so scoped
	// analyzers match it the same way in both modes.
	Path string
	// Dir is the package directory.
	Dir string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed sources, with comments. _test.go files are
	// included for test-augmented and external test packages.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's fact tables for the files.
	Info *types.Info
}

// TestFile reports whether f is a _test.go file of the package.
func (p *Package) TestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Error      *struct{ Err string }
}

// basePath strips go list's test-variant suffix:
// "pkg [pkg.test]" → "pkg".
func basePath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// Load discovers the packages matching patterns (relative to dir, as
// the go tool would resolve them) and type-checks each from source,
// _test.go files included (`go list -test`). Dependencies — standard
// library and intra-repo alike — are imported from compiler export
// data produced by `go list -export`, so loading stays fast and needs
// nothing beyond the Go toolchain. For a package with in-package test
// files only the test-augmented variant is returned (its file set is a
// superset of the plain package's); the synthesized ".test" main
// packages are skipped.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,ForTest,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			// The synthesized test main: nothing but a generated
			// _testmain.go, irrelevant to analysis.
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	// Where a test-augmented variant exists, drop the plain package it
	// shadows: the variant type-checks the same files plus the tests,
	// and analyzing both would do every non-test file twice.
	augmented := make(map[string]bool)
	for _, t := range targets {
		if t.ForTest != "" && basePath(t.ImportPath) == t.ForTest {
			augmented[t.ForTest] = true
		}
	}
	kept := targets[:0]
	for _, t := range targets {
		if t.ForTest == "" && augmented[t.ImportPath] {
			continue
		}
		kept = append(kept, t)
	}
	targets = kept
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	// Each test binary gets an importer of its own: a package built for
	// it imports what the go tool linked into it.
	fset := token.NewFileSet()
	importers := make(map[string]types.Importer) // by ForTest
	var pkgs []*Package
	for _, t := range targets {
		imp := importers[t.ForTest]
		if imp == nil {
			imp = importer.ForCompiler(fset, "gc", exportsFor(exports, t.ForTest))
			importers[t.ForTest] = imp
		}
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportsFor opens the export data that a package built for forTest's
// test binary imports path from. That is the variant go list recompiled
// for the binary ("path [forTest.test]"), which carries a test-augmented
// package's export_test.go declarations and is built against them, and
// otherwise the plain package.
func exportsFor(exports map[string]string, forTest string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path+" ["+forTest+".test]"]
		if !ok {
			exp, ok = exports[path]
		}
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	}
}

// check parses and type-checks one package from source.
func check(fset *token.FileSet, imp types.Importer, t listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	path := basePath(t.ImportPath)
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   t.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
