package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// referenceDocs are the documents whose code spans must name things
// that exist.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "doc.go"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineCode  = regexp.MustCompile("`[^`]+`")
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testDecl    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	makeRule    = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
)

// TestDocReferences: every backticked `make <target>` in the documents
// is a Makefile target, and every backticked Test, Benchmark or Fuzz
// name is declared in some _test.go file of the module. A /sub suffix
// is dropped and the rest matched as a prefix, so a -bench pattern such
// as BenchmarkHit resolves to BenchmarkHitSerial. A deleted target or
// test cannot stay cited.
func TestDocReferences(t *testing.T) {
	targets := makeTargets(t)
	declared := declaredTests(t)
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

func hasPrefixed(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
