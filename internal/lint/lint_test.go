package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

// fixtureAnalyzer flags every use of the package function time.Now,
// standing in for clockinject so the framework test doesn't depend on
// the checks package.
func fixtureAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "clockinject",
		Doc:  "test stand-in",
		Run: func(pass *Pass) {
			for ident, obj := range pass.Pkg.Info.Uses {
				if ExportedFrom(obj, "time", "Now") {
					pass.Reportf(ident.Pos(), "direct use of time.Now")
				}
			}
		},
	}
}

// TestSuppressions loads the suppress fixture and checks that the
// well-formed //lint:ignore silences its line, the reason-less one is
// itself reported, and the unsuppressed diagnostic survives.
func TestSuppressions(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/suppress")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run(".", pkgs, []*Analyzer{fixtureAnalyzer()}, nil)

	var gotMalformed, gotSurvivor bool
	for _, d := range diags {
		switch {
		case d.Check == "lint" && strings.Contains(d.Message, "malformed"):
			gotMalformed = true
		case d.Check == "clockinject":
			// The only clockinject finding must be the one under the
			// reason-less (void) directive; the well-formed one is
			// silenced.
			gotSurvivor = true
		}
	}
	if !gotMalformed {
		t.Errorf("missing diagnostic for reason-less //lint:ignore; got %v", diags)
	}
	if !gotSurvivor {
		t.Errorf("malformed directive must not suppress; got %v", diags)
	}
	if len(diags) != 2 {
		t.Errorf("want exactly 2 diagnostics (malformed directive + surviving finding), got %d: %v", len(diags), diags)
	}
}

// TestUnknownCheckDirective covers the unknown fixture: a trailing
// same-line suppression silences its own line, and a directive naming
// a check outside the run's vocabulary is reported under "lint"
// without silencing the finding beneath it.
func TestUnknownCheckDirective(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/unknown")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run(".", pkgs, []*Analyzer{fixtureAnalyzer()}, nil)

	var gotUnknown, gotSurvivor, gotTrailing bool
	for _, d := range diags {
		switch {
		case d.Check == "lint" && strings.Contains(d.Message, `unknown check "nosuchcheck"`):
			gotUnknown = true
		case d.Check == "clockinject" && d.Line == 18:
			// Phantom's time.Now: the nosuchcheck directive covers its
			// line but names the wrong check, so the finding survives.
			gotSurvivor = true
		case d.Check == "clockinject" && d.Line == 10:
			gotTrailing = true // Trailing's same-line directive failed
		}
	}
	if !gotUnknown {
		t.Errorf("missing unknown-check diagnostic; got %v", diags)
	}
	if !gotSurvivor {
		t.Errorf("unknown-check directive must not suppress; got %v", diags)
	}
	if gotTrailing {
		t.Errorf("trailing same-line //lint:ignore failed to suppress; got %v", diags)
	}

	// Run with the extra vocabulary accepts the directive (a
	// driver running -checks=subset still knows the full suite).
	for _, d := range Run(".", pkgs, []*Analyzer{fixtureAnalyzer()}, []string{"nosuchcheck"}) {
		if d.Check == "lint" {
			t.Errorf("known-vocabulary directive still reported: %v", d)
		}
	}
}

// TestLoadIncludesTestFiles pins test-aware loading: _test.go files
// are part of the package Load returns, flagged by TestFile, and
// analyzers see their contents.
func TestLoadIncludesTestFiles(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/testaware")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var sawTestFile bool
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				sawTestFile = true
				if !pkg.TestFile(f) {
					t.Errorf("TestFile(%s) = false, want true", name)
				}
			} else if pkg.TestFile(f) {
				t.Errorf("TestFile(%s) = true, want false", name)
			}
		}
	}
	if !sawTestFile {
		t.Fatal("Load returned no _test.go files; test-aware loading is broken")
	}

	var hit bool
	for _, d := range Run(".", pkgs, []*Analyzer{fixtureAnalyzer()}, nil) {
		if strings.HasSuffix(d.File, "testaware_test.go") {
			hit = true
		}
	}
	if !hit {
		t.Error("analyzer did not report the time.Now inside the _test.go file")
	}
}

// TestRelPath pins the path normalization contract: base-relative with
// forward slashes when the file is under base, untouched (but slashed)
// otherwise.
func TestRelPath(t *testing.T) {
	cases := []struct {
		base, file, want string
	}{
		{"/a/b", "/a/b/c/d.go", "c/d.go"},
		{"/a/b", "/x/y.go", "/x/y.go"},
		{"", "pkg/f.go", "pkg/f.go"},
		{"/a/b", "/a/b/f.go", "f.go"},
	}
	for _, c := range cases {
		if got := relPath(c.base, c.file); got != c.want {
			t.Errorf("relPath(%q, %q) = %q, want %q", c.base, c.file, got, c.want)
		}
	}
}

// TestDiagnosticJSONShape pins the machine-readable output format that
// CI and editors consume.
func TestDiagnosticJSONShape(t *testing.T) {
	d := Diagnostic{Check: "ctxflow", File: "internal/a/a.go", Line: 7, Col: 3, Message: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"check":"ctxflow","file":"internal/a/a.go","line":7,"col":3,"message":"m"}`
	if string(b) != want {
		t.Errorf("JSON shape changed:\n got %s\nwant %s", b, want)
	}
}

// TestRunSortsAndDedupes pins the deterministic ordering contract: two
// identical analyzers produce duplicate findings, Run collapses them
// and orders what remains.
func TestRunSortsAndDedupes(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/suppress")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run(".", pkgs, []*Analyzer{fixtureAnalyzer(), fixtureAnalyzer()}, nil)
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a == b {
			t.Errorf("duplicate diagnostic survived: %v", a)
		}
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

// TestExportedFromRejectsMethods guards the package-function/method
// distinction: the Time.After method must not match a hypothetical
// package function of the same name.
func TestExportedFromRejectsMethods(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/suppress")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var sawFunc, sawMethod bool
	for _, obj := range pkgs[0].Info.Uses {
		switch obj.Name() {
		case "Now":
			if ExportedFrom(obj, "time", "Now") {
				sawFunc = true
			}
		case "After":
			sawMethod = true
			if ExportedFrom(obj, "time", "After") {
				t.Errorf("ExportedFrom matched the Time.After method as time.After")
			}
		}
	}
	if !sawFunc {
		t.Error("ExportedFrom failed to match the package function time.Now")
	}
	if !sawMethod {
		t.Error("fixture no longer uses Time.After; the method case is untested")
	}
}
