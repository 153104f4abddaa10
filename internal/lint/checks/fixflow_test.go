package checks

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestAtomicMixFixEndToEnd drives the whole -fix pipeline the way
// cmd/wscachelint does: load a module, run atomicmix, apply the
// suggested fixes to disk, and verify the rewritten source is clean on
// a second pass. The fixture lives in a temp module so the golden
// fixtures stay byte-stable.
func TestAtomicMixFixEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	base := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(base, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("counter.go", `package fixture

import "sync/atomic"

var hits int64

func bump() { atomic.AddInt64(&hits, 1) }

func read() int64 {
	return hits
}
`)

	pkgs, err := lint.Load(base, "./...")
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	diags := lint.Run(base, pkgs, []*lint.Analyzer{atomicMix()}, nil)
	var fixable []lint.Diagnostic
	for _, d := range diags {
		if d.Fix != nil {
			fixable = append(fixable, d)
		}
	}
	if len(fixable) == 0 {
		t.Fatalf("no diagnostic carried a fix; got %v", diags)
	}

	changed, err := lint.ApplyFixes(base, fixable)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if len(changed) != 1 || changed[0] != "counter.go" {
		t.Fatalf("changed = %v, want [counter.go]", changed)
	}
	src, err := os.ReadFile(filepath.Join(base, "counter.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "atomic.LoadInt64(&hits)") {
		t.Fatalf("fix did not rewrite the plain read:\n%s", src)
	}

	// The rewritten module must compile and lint clean.
	pkgs, err = lint.Load(base, "./...")
	if err != nil {
		t.Fatalf("reloading fixed module: %v", err)
	}
	if diags := lint.Run(base, pkgs, []*lint.Analyzer{atomicMix()}, nil); len(diags) != 0 {
		t.Errorf("fixed source still reports: %v", diags)
	}
}
