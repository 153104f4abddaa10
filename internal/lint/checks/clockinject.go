package checks

import (
	"go/ast"

	"repro/internal/lint"
)

// clockScope is the default set of packages whose time handling must go
// through the injectable clock seam (internal/clock): the cache core,
// the client handler chain, the transport, and the server-side cache
// all make TTL/backoff/breaker decisions that tests must be able to
// drive deterministically. internal/clock itself is the single
// sanctioned time.Now site.
var clockScope = map[string]bool{
	"repro/internal/core":      true,
	"repro/internal/client":    true,
	"repro/internal/transport": true,
	"repro/internal/server":    true,
}

// clockInject forbids direct wall-clock reads and sleeps (time.Now,
// time.Sleep, time.After) in the scoped packages: time must be injected
// via a Clock configuration hook defaulting to the internal/clock seam,
// so that TTL, breaker, and backoff behaviour is testable without real
// sleeps. time.NewTimer/NewTicker remain allowed — they are the
// cancellation-safe waiting primitives and are driven by injected
// durations.
func clockInject(scope func(pkgPath string) bool) *lint.Analyzer {
	if scope == nil {
		scope = func(p string) bool { return clockScope[p] }
	}
	return &lint.Analyzer{
		Name: "clockinject",
		Doc: "time-sensitive packages must read time through the injectable clock seam " +
			"(internal/clock), not time.Now/Sleep/After",
		Run: func(pass *lint.Pass) { runClockInject(pass, scope) },
	}
}

func runClockInject(pass *lint.Pass, scope func(string) bool) {
	if !scope(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		if pass.Pkg.TestFile(file) {
			// Tests drive the injected clock but may legitimately read
			// the wall clock for seeds, timeouts, and benchmarks.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if lint.ExportedFrom(obj, "time", "Now", "Sleep", "After") {
				pass.Reportf(sel.Pos(),
					"direct use of time.%s in a time-sensitive package; inject it via a Clock hook defaulting to internal/clock (clock.Or)",
					obj.Name())
			}
			return true
		})
	}
}
