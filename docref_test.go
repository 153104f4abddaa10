package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// referenceDocs are the documents whose code spans must name things
// that exist.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "doc.go"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineCode  = regexp.MustCompile("`[^`]+`")
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testDecl    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	makeRule    = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
	// goRef matches pkg.Name and pkg.Type.Member, Name exported, not
	// itself the tail of a longer dotted or slashed path.
	goRef = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
)

// TestDocReferences: every backticked `make <target>` in the documents
// is a Makefile target, and every backticked Test, Benchmark or Fuzz
// name is declared in some _test.go file of the module. A /sub suffix
// is dropped and the rest matched as a prefix, so a -bench pattern such
// as BenchmarkHit resolves to BenchmarkHitSerial. A backticked
// `pkg.Name` or `pkg.Type.Member` whose pkg names a directory under
// internal/ or cmd/ must resolve in that package: Name to a top-level
// declaration or a method of one of its types, Member to a method or
// struct field of Type. A deleted target, test or identifier cannot
// stay cited.
func TestDocReferences(t *testing.T) {
	targets := makeTargets(t)
	declared := declaredTests(t)
	decls := goDecls(t)
	for _, doc := range referenceDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(b)) {
			for _, target := range makeArgs(span) {
				if !targets[target] {
					t.Errorf("%s: `%s` names no Makefile target %q", doc, span, target)
				}
			}
			for _, name := range testName.FindAllString(span, -1) {
				if !hasPrefixed(declared, name) {
					t.Errorf("%s: `%s` names %s, which no _test.go declares", doc, span, name)
				}
			}
			for _, m := range goRef.FindAllStringSubmatch(span, -1) {
				pkg, ok := decls[m[1]]
				if !ok {
					continue
				}
				ref := m[1] + "." + m[2]
				if !pkg[m[2]] && !pkg["()"+m[2]] {
					t.Errorf("%s: `%s` names %s, which package %s does not declare", doc, span, ref, m[1])
				} else if m[3] != "" && pkg[m[2]+".*"] && !pkg[m[2]+"."+m[3]] {
					t.Errorf("%s: `%s` names %s.%s, which is no method or field of %s", doc, span, ref, m[3], ref)
				}
			}
		}
	}
}

// codeSpans returns the code of a Markdown text (or of a Go comment
// that uses the same backticks): each line of a fenced block, then each
// inline span with its line breaks folded to spaces.
func codeSpans(text string) []string {
	var spans []string
	for _, block := range fencedBlock.FindAllString(text, -1) {
		spans = append(spans, strings.Split(strings.Trim(block, "`"), "\n")...)
	}
	for _, s := range inlineCode.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1) {
		spans = append(spans, strings.ReplaceAll(strings.Trim(s, "`"), "\n", " "))
	}
	return spans
}

// makeArgs returns the targets of every make command in a code span:
// the words after "make" up to the end of the command or a comment,
// less variable assignments and flags.
func makeArgs(span string) []string {
	var targets []string
	words := strings.Fields(span)
	for i, w := range words {
		if w != "make" {
			continue
		}
		for _, arg := range words[i+1:] {
			if strings.ContainsAny(arg, ";|&<>()#") {
				break
			}
			if strings.Contains(arg, "=") || strings.HasPrefix(arg, "-") {
				continue
			}
			targets = append(targets, arg)
		}
	}
	return targets
}

func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(b), -1) {
		targets[m[1]] = true
	}
	return targets
}

// declaredTests collects the Test, Benchmark and Fuzz functions of
// every _test.go file in the module, skipping hidden directories (build
// caches live there) and testdata.
func declaredTests(t *testing.T) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(b), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// goDecls maps the name of every package directory under internal/ and
// cmd/ to the identifiers its non-test files declare: top-level names,
// Type.Member for each method, struct field and interface method, and
// ()Method for each method. A type also gets Type.* so a reference
// knows it may name a member.
func goDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				if err == nil && d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return err
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := filepath.Base(filepath.Dir(path))
			if decls[pkg] == nil {
				decls[pkg] = map[string]bool{}
			}
			addDecls(decls[pkg], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return decls
}

// addDecls records what one file declares into names.
func addDecls(names map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				names[id.Name+"."+d.Name.Name] = true
				names["()"+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names[id.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					names[s.Name.Name+".*"] = true
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, id := range field.Names {
							names[s.Name.Name+"."+id.Name] = true
						}
					}
				}
			}
		}
	}
}

func hasPrefixed(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
