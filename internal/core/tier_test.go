package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
)

// countingAppender counts key-generation passes of an append-capable
// generator, whichever entry point the cache uses.
type countingAppender struct {
	inner rep.StringKey
	calls *atomic.Int64
}

func (k countingAppender) Name() string { return k.inner.Name() }

func (k countingAppender) Key(ictx *client.Context) (string, error) {
	k.calls.Add(1)
	return k.inner.Key(ictx)
}

func (k countingAppender) AppendKey(dst []byte, ictx *client.Context) ([]byte, error) {
	k.calls.Add(1)
	return k.inner.AppendKey(dst, ictx)
}

// countingStringer is the same generator without AppendKey: the cache
// must copy its Key string into the scratch buffer.
type countingStringer struct{ app countingAppender }

func (k countingStringer) Name() string { return k.app.Name() }

func (k countingStringer) Key(ictx *client.Context) (string, error) { return k.app.Key(ictx) }

// TestOneKeyGenerationPerRequest: the L1 digest and the cross-process
// tier key come from one key-generation pass, on every serving path —
// L1 hit, tier hit, origin miss — and two caches sharing a tier still
// agree on the tier key.
func TestOneKeyGenerationPerRequest(t *testing.T) {
	for name, mk := range map[string]func(*atomic.Int64) rep.KeyGenerator{
		"appender": func(n *atomic.Int64) rep.KeyGenerator { return countingAppender{rep.NewStringKey(), n} },
		"stringer": func(n *atomic.Int64) rep.KeyGenerator {
			return countingStringer{countingAppender{rep.NewStringKey(), n}}
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			shared := engine.NewTier(engine.Config{}, nil, obs.NewRegistry())
			keygens := new(atomic.Int64)
			build := func() *Cache {
				return newCache(t, f, func(cfg *Config) {
					cfg.KeyGen = mk(keygens)
					cfg.Store = nil
					cfg.Rep = rep.NewRegistry(f.reg, f.codec)
					cfg.Tiers = []tier.Tier{shared}
				})
			}
			if _, ok := mk(keygens).(rep.KeyAppender); ok != (name == "appender") {
				t.Fatalf("%s generator: KeyAppender = %v", name, ok)
			}
			a, b := build(), build()
			next, origin := countingNext(f, t, func() any { return &item{Name: "k", Score: 1} })
			invoke := func(c *Cache, path string, wantHit bool, wantOrigin int64) {
				t.Helper()
				before := keygens.Load()
				ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
				if err := c.HandleInvoke(ictx, next); err != nil {
					t.Fatal(err)
				}
				if ictx.CacheHit != wantHit || origin.Load() != wantOrigin {
					t.Fatalf("%s: hit = %v, origin calls = %d; want %v, %d", path, ictx.CacheHit, origin.Load(), wantHit, wantOrigin)
				}
				if got := keygens.Load() - before; got != 1 {
					t.Errorf("%s: %d key-generation passes, want 1", path, got)
				}
			}
			invoke(a, "origin miss", false, 1)
			invoke(a, "L1 hit", true, 1)
			invoke(b, "tier hit", true, 1)
			if got := b.Stats().TierHits; got != 1 {
				t.Errorf("tier hits = %d, want 1", got)
			}
		})
	}
}
