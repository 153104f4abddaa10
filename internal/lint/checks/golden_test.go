package checks

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the expectation pattern from a // want "..." comment.
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]*)"`)

// expectation is one // want comment: a diagnostic that must be
// reported on its line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
}

// runGolden loads testdata/src/<name> plus any fixture subpackages
// below it, runs the analyzer, and matches its diagnostics against the
// fixtures' // want comments, both ways: every diagnostic needs a
// matching expectation and every expectation needs a matching
// diagnostic. Subdirectories are listed explicitly because go list
// wildcards never descend into testdata trees.
func runGolden(t *testing.T, a *lint.Analyzer) {
	t.Helper()
	root := filepath.Join("testdata", "src", a.Name)
	patterns := []string{"./" + root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if gofiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gofiles) > 0 {
			patterns = append(patterns, "./"+path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded from %v", patterns)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			filename := pkg.Fset.Position(file.Pos()).Filename
			rel, err := filepath.Rel(".", filename)
			if err != nil {
				rel = filename
			}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					rx, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", rel, m[1], err)
					}
					wants = append(wants, &expectation{
						file:    rel,
						line:    pkg.Fset.Position(c.Pos()).Line,
						pattern: rx,
					})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments; it cannot prove the analyzer fires", root)
	}

	diags := lint.Run(".", pkgs, []*lint.Analyzer{a}, nil)
	matched := make(map[*expectation]bool)
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if matched[w] || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				matched[w] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic %s:%d: %s: %s", d.File, d.Line, d.Check, d.Message)
		}
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// fixtureScope admits every package, so fixtures outside the real
// default scopes still exercise the scoped analyzers.
func fixtureScope(string) bool { return true }

func TestHotPathGolden(t *testing.T)     { runGolden(t, hotPath()) }
func TestLockGuardGolden(t *testing.T)   { runGolden(t, lockGuard()) }
func TestCtxFlowGolden(t *testing.T)     { runGolden(t, ctxFlow()) }
func TestClockInjectGolden(t *testing.T) { runGolden(t, clockInject(fixtureScope)) }
func TestXMLEscapeGolden(t *testing.T)   { runGolden(t, xmlEscape(fixtureScope)) }
func TestAPIGolden(t *testing.T)         { runGolden(t, api()) }

// TestAPIPartialLoad: a run that loaded only part of a tree cannot see
// every caller, so api reports nothing rather than false findings.
func TestAPIPartialLoad(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/src/api")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(".", pkgs, []*lint.Analyzer{api()}, nil) {
		t.Errorf("partial load reported %s:%d: %s", d.File, d.Line, d.Message)
	}
}

// TestRepoIsLintClean is the meta-test behind `make lint`: the full
// analyzer suite must report nothing on the repository itself. A
// finding here means either new code broke an invariant or it needs an
// explicit //lint:ignore with a reason.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading ./...: %v", err)
	}
	for _, d := range lint.Run(root, pkgs, All(), nil) {
		t.Errorf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
	}
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// TestFixturesAreNotLintedByWildcard guards the layout assumption that
// testdata packages stay invisible to ./... — the repo-clean meta-test
// is only meaningful if the deliberately broken fixtures don't load.
func TestFixturesAreNotLintedByWildcard(t *testing.T) {
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading ./...: %v", err)
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("wildcard load picked up fixture package %s", pkg.Path)
		}
	}
}
