package core

import (
	"testing"

	"repro/internal/invalidate"
)

// The invalidation benchmarks price the epoch check on the hit path:
// with a configured Invalidator, every entry filled for a declared
// read operation carries epoch stamps, and every hit re-validates them
// (a handful of atomic loads). BenchmarkHitInval mirrors
// BenchmarkHitSerial with stamps present, so the two side by side price
// the check in time; TestHitAllocs holds both at zero allocations.

// benchInvalidator builds an invalidator whose graph declares the
// benchmark's opGet operation as reading two keyspaces — one per-key,
// one shared — so every cached entry carries two stamps, matching the
// item-store shape (item:<key> plus the listing keyspace).
func benchInvalidator() *invalidate.Invalidator {
	g := invalidate.NewGraph().
		Read(opGet, invalidate.Param(itemPrefix, "q", 1), invalidate.Fixed(ksItems)).
		Write(opPut, invalidate.Param(itemPrefix, "q", 1), invalidate.Fixed(ksItems))
	return invalidate.New(g, nil)
}

// BenchmarkHitInval is BenchmarkHitSerial with epoch stamps on every
// entry: the hit-path cost of dependency-aware invalidation.
func BenchmarkHitInval(b *testing.B) {
	c, qs := newHitBench(b, func(cfg *Config) {
		cfg.Invalidator = benchInvalidator()
	})
	b.ReportAllocs()
	b.ResetTimer()
	hitLoop(b, c, qs, 0, b.N)
}

// TestHitAllocs holds the steady-state hit at zero heap allocations,
// without stamps and with two stamps per entry: an epoch check that
// boxed a value or grew a slice shows here as a count, where a timing
// ratio would lose it in scheduler noise.
func TestHitAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"plain", nil},
		{"two stamps", func(cfg *Config) { cfg.Invalidator = benchInvalidator() }},
	} {
		c, qs := newHitBench(t, tc.mutate)
		ictx := benchCtx(qs[0])
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			hit(t, c, ictx, qs[i%len(qs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s hit: %v allocs per call, want 0", tc.name, allocs)
		}
	}
}
