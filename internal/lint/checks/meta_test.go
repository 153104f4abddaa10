package checks

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readmeCheckRe matches an analyzer's entry in the README's lint
// section: a list item opening with the backticked check name.
var readmeCheckRe = regexp.MustCompile("(?m)^- `([a-z]+)` —")

// TestAnalyzerCoverage keeps the suite and its records in step, both
// ways. Every analyzer wired into All() must ship a golden fixture that
// actually asserts something (at least one // want comment) and must be
// documented in the README's lint section: otherwise it exists only
// nominally — nothing proves it fires and nobody can discover it. And
// every check the README's lint section lists, and every fixture
// directory, must belong to an analyzer All() returns: otherwise it
// describes or tests a check that no longer runs.
func TestAnalyzerCoverage(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}

	_, section, ok := strings.Cut(string(readme), "\n## Static analysis\n")
	if !ok {
		t.Fatal("README.md has no \"## Static analysis\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	run := make(map[string]bool)
	for _, a := range All() {
		run[a.Name] = true
		dir := filepath.Join("testdata", "src", a.Name)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("analyzer %s has no golden fixture under %s", a.Name, dir)
			continue
		}
		var hasWant bool
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "// want ") {
				hasWant = true
				break
			}
		}
		if !hasWant {
			t.Errorf("analyzer %s fixture has no // want comments; it cannot prove the analyzer fires", a.Name)
		}
		if !strings.Contains(section, "`"+a.Name+"`") {
			t.Errorf("analyzer %s is not listed in README.md's lint section", a.Name)
		}
	}

	for _, m := range readmeCheckRe.FindAllStringSubmatch(section, -1) {
		if !run[m[1]] {
			t.Errorf("README.md's lint section lists %s, which All() does not return", m[1])
		}
	}
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		if f.IsDir() && !run[f.Name()] {
			t.Errorf("fixture directory testdata/src/%s belongs to no analyzer All() returns", f.Name())
		}
	}
}
