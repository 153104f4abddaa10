package core

import (
	"context"
	"fmt"
	"repro/internal/rep"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/soap"
)

// The hit-path benchmarks measure the cache core itself: key
// generation, routing, and table lookup, with result materialization
// held to a no-op (pass-by-reference store) so the numbers isolate the
// cache's own cost. BenchmarkHitSerial is the single-goroutine
// regression guard; BenchmarkHitParallel sweeps goroutine counts to
// expose lock contention on the hit path — the single global mutex of
// the pre-sharding core flatlines here, the sharded core scales.

// benchResult is the shared payload every hit returns by reference.
type benchResult struct {
	Name  string
	Score float64
}

// benchKeys is the hot-key working set; a power of two so the modulo in
// the loop is cheap and the keys spread across shards.
const benchKeys = 64

// newHitBench builds a cache pre-filled with benchKeys entries and
// returns it with the query values used to address them. The values
// are pre-boxed into any so the measured loop swaps a parameter
// without the string-to-interface allocation.
func newHitBench(b testing.TB, mutate func(*Config)) (*Cache, []any) {
	b.Helper()
	cfg := Config{
		KeyGen: rep.NewStringKey(),
		Store:  rep.NewRefStore(nil, true),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	result := &benchResult{Name: "hit", Score: 1}
	fill := func(ictx *client.Context) error {
		ictx.Result = result
		return nil
	}
	qs := make([]any, benchKeys)
	for i := range qs {
		qs[i] = fmt.Sprintf("hot query %d", i)
		ictx := benchCtx(qs[i])
		if err := c.HandleInvoke(ictx, fill); err != nil {
			b.Fatal(err)
		}
	}
	return c, qs
}

// benchCtx fabricates a request-side invocation context.
func benchCtx(q any) *client.Context {
	return &client.Context{
		Ctx:       context.Background(),
		Endpoint:  "http://bench/endpoint",
		Namespace: "urn:Bench",
		Operation: opGet,
		Params: []soap.Param{
			{Name: "key", Value: "k"},
			{Name: "q", Value: q},
			{Name: "start", Value: 0},
			{Name: "max", Value: 10},
		},
	}
}

// failNext is the invoker for pure-hit loops: reaching it means a key
// missed, which the benchmark treats as a failure.
func failNext(*client.Context) error {
	return fmt.Errorf("benchmark expected a cache hit")
}

// hitLoop drives n hits through one reused context, rotating the
// working set starting at off.
func hitLoop(b testing.TB, c *Cache, qs []any, off, n int) {
	ictx := benchCtx(qs[0])
	for i := 0; i < n; i++ {
		if !hit(b, c, ictx, qs[(off+i)%len(qs)]) {
			return
		}
	}
}

// hit serves query q through the reused context ictx and reports
// whether it was the hit the caller expects.
func hit(b testing.TB, c *Cache, ictx *client.Context, q any) bool {
	ictx.Params[1].Value = q
	ictx.Result = nil
	ictx.CacheHit = false
	if err := c.HandleInvoke(ictx, failNext); err != nil {
		b.Error(err)
		return false
	}
	if !ictx.CacheHit {
		b.Error("miss on a pre-filled key")
		return false
	}
	return true
}

// BenchmarkHitSerial is the single-goroutine hit latency: the number
// the sharded core must not regress by more than 5%.
func BenchmarkHitSerial(b *testing.B) {
	c, qs := newHitBench(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	hitLoop(b, c, qs, 0, b.N)
}

// BenchmarkHitParallel sweeps the hit path across goroutine counts.
// b.N iterations are split evenly across the goroutines, so ns/op is
// wall-clock per hit and falling ns/op with rising goroutine count is
// scaling. The acceptance bar: /16 at ≥4× the ops/sec of the
// single-lock baseline.
func BenchmarkHitParallel(b *testing.B) {
	for _, g := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprint(g), func(b *testing.B) {
			c, qs := newHitBench(b, nil)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				n := b.N / g
				if w < b.N%g {
					n++
				}
				wg.Add(1)
				go func(off, n int) {
					defer wg.Done()
					hitLoop(b, c, qs, off, n)
				}(w*7, n)
			}
			wg.Wait()
		})
	}
}
