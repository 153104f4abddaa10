// Package lint is a small static-analysis framework for this
// repository, built only on the standard library (go/parser, go/ast,
// go/types, go/importer; package discovery via `go list -json`). It
// exists because the cache's central correctness argument — call-by-copy
// semantics for every value representation, plus the concurrency and
// context discipline of the resilience layer — cannot be expressed in
// the Go type system and `go vet` knows nothing about it. The analyzers
// in internal/lint/checks turn those conventions into machine-checked
// invariants; cmd/wscachelint is the driver that `make lint` and CI
// run over ./... A convention that a type, `go vet` or a test can hold
// (typed atomics, obs.Name, the item graph's oracle) gets no analyzer.
//
// Model: a Package is one type-checked package, _test.go files
// included; an Analyzer inspects one Package through a Pass and
// reports Diagnostics. Packages are analyzed in parallel by a bounded
// worker pool; Diagnostics carry file:line:col positions, are sorted
// and deduplicated, and serialize to a stable JSON array for tooling.
// Individual findings are silenced in source with
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory: a suppression without one is itself reported,
// as is a suppression naming a check the run does not know.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, positioned for editors and stable for
// tooling. File is slash-separated and relative to the directory the
// run was rooted at.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check. Run inspects the Pass's package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the check in output and in //lint:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass couples one Analyzer run to one Package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Pkgs is every package the run loaded, Pkg among them, for checks
	// whose question spans packages (who references this name?).
	Pkgs []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the packages — in parallel, one
// worker per CPU — applies //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by file, line, column, check, and
// message, with file paths relative to base. Output is deterministic
// regardless of scheduling. Malformed suppression comments are
// reported under the "lint" check, as are suppressions naming a check
// the run does not recognize; a caller running a subset of the suite
// passes the full vocabulary via known so valid suppressions for
// unselected checks are not flagged (nil defaults to the analyzers
// run).
func Run(base string, pkgs []*Package, analyzers []*Analyzer, known []string) []Diagnostic {
	names := make(map[string]bool, len(analyzers)+1)
	names["lint"] = true
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, n := range known {
		names[n] = true
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i] = runPackage(pkg, pkgs, analyzers, names)
		}(i, pkg)
	}
	wg.Wait()

	var all []Diagnostic
	for _, ds := range perPkg {
		all = append(all, ds...)
	}
	for i := range all {
		all[i].File = relPath(base, all[i].File)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return dedupe(all)
}

// runPackage runs every analyzer over one package and applies its
// suppressions — the unit of parallelism.
func runPackage(pkg *Package, pkgs []*Package, analyzers []*Analyzer, known map[string]bool) []Diagnostic {
	supp, directives, all := collectSuppressions(pkg)
	for _, dir := range directives {
		if !known[dir.check] {
			all = append(all, Diagnostic{
				Check: "lint", File: dir.file, Line: dir.line, Col: dir.col,
				Message: fmt.Sprintf("//lint:ignore names unknown check %q; the suppression can never match a finding", dir.check),
			})
		}
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Pkgs: pkgs, diags: &diags}
		a.Run(pass)
	}
	for _, d := range diags {
		if !supp.suppressed(d) {
			all = append(all, d)
		}
	}
	return all
}

// relPath relativizes file against base when possible, always with
// forward slashes, so output is stable across checkouts.
func relPath(base, file string) string {
	if base != "" {
		if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

// dedupe drops duplicates from a sorted slice (one analyzer can
// legitimately reach the same finding along two paths).
func dedupe(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i == 0 || d != ds[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// ignorePrefix is the magic comment prefix for suppressions.
const ignorePrefix = "lint:ignore"

// suppressions records, per check name, the source lines on which its
// findings are silenced.
type suppressions struct {
	lines map[string]map[suppKey]bool
}

// suppKey is one silenced (file, line).
type suppKey struct {
	file string
	line int
}

func (s *suppressions) suppressed(d Diagnostic) bool {
	return s.lines[d.Check][suppKey{d.File, d.Line}]
}

func (s *suppressions) add(check, file string, line int) {
	if s.lines[check] == nil {
		s.lines[check] = make(map[suppKey]bool)
	}
	// A suppression covers its own line (trailing comment) and the line
	// below it (comment above the offending statement).
	s.lines[check][suppKey{file, line}] = true
	s.lines[check][suppKey{file, line + 1}] = true
}

// directive is one well-formed //lint:ignore comment, kept for
// unknown-check reporting.
type directive struct {
	check string
	file  string
	line  int
	col   int
}

// collectSuppressions scans every comment in the package for
// //lint:ignore directives. Malformed directives (missing check name or
// reason) are returned as diagnostics so they cannot silently rot;
// well-formed ones are returned both indexed for matching and as a
// list for unknown-check validation.
func collectSuppressions(pkg *Package) (*suppressions, []directive, []Diagnostic) {
	supp := &suppressions{lines: make(map[string]map[suppKey]bool)}
	var directives []directive
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Check: "lint", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\" with a non-empty reason",
					})
					continue
				}
				supp.add(fields[0], pos.Filename, pos.Line)
				directives = append(directives, directive{
					check: fields[0], file: pos.Filename, line: pos.Line, col: pos.Column,
				})
			}
		}
	}
	return supp, directives, malformed
}

// ExportedFrom reports whether obj is a function declared in the
// standard-library package pkgPath with one of the given names — a
// shared helper for analyzers matching calls like time.Now or
// context.Background.
func ExportedFrom(obj types.Object, pkgPath string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	// Methods don't count: time.Now is not t.Now, and a method named
	// After on time.Time must not match the package function time.After.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// DocText returns the doc comment text of a function declaration, or "".
func DocText(fn *ast.FuncDecl) string {
	if fn.Doc == nil {
		return ""
	}
	return fn.Doc.Text()
}

// IsDeprecated reports whether a declaration's doc comment carries a
// standard "Deprecated:" marker. Deprecated compatibility shims are
// grandfathered by several analyzers: they exist to be replaced, and
// their replacements are what the invariant is about.
func IsDeprecated(fn *ast.FuncDecl) bool {
	for _, line := range strings.Split(DocText(fn), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Deprecated:") {
			return true
		}
	}
	return false
}

// HasDirective reports whether a function declaration's doc comment
// contains the given //lint:<name> directive on a line of its own —
// the annotation mechanism behind the hotpath analyzer.
func HasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	want := "lint:" + name
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == want {
			return true
		}
	}
	return false
}
