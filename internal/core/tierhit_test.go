package core

import (
	"context"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
)

// startTierDaemon serves a daemon cache over a loopback
// cluster.Server and returns a cluster.Remote to it for a client whose
// invalidator is inv, and the daemon cache; everything is stopped when
// the test ends.
func startTierDaemon(t *testing.T, f *fixture, inv *invalidate.Invalidator) (*cluster.Remote, *Cache) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	dinv := invalidate.New(nil, nil)
	daemon := newCache(t, f, func(cfg *Config) { cfg.Invalidator = dinv })
	srv, err := cluster.NewServer(cluster.ServerConfig{Tier: daemon, Inv: dinv})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	remote, err := cluster.New(cluster.Config{Addrs: []string{lis.Addr().String()}, Inv: inv, BaseContext: ctx})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote, daemon
}

// TestTierHitAllocs bounds an L1 miss the shared tier serves, the
// client cache, its cluster.Remote and an in-process cluster.Server in
// front of a daemon cache counted together. A tier hit is an L1 fill:
// the client keeps the value frame the Get returns, decodes the result
// from it for the caller, and fills the L1 entry from that result in
// the representation an origin fill picks. The read-set stamp, the rep
// name and the daemon's side allocate nothing.
//
// A string result lands on pass by reference, whose copy-in is free:
// five allocations, one fewer than while L1 kept the binser bytes and
// boxed them as its payload first. A mutable bean lands on reflection
// copy, whose copy-in is paid here, once per promotion, instead of a
// binser decode on every later L1 hit: the bound is the five the bean
// took while L1 kept binser, plus that copy-in as measured.
func TestTierHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	t.Run("string", func(t *testing.T) {
		if allocs := tierHitAllocs(t, func() any { return "v:some-key" }); allocs > 5 {
			t.Errorf("L1 miss, tier hit: %v allocs per call, want ≤ 5", allocs)
		}
	})
	t.Run("bean", func(t *testing.T) {
		f := newFixture(t)
		bean := func() any { return &item{Name: "n", Score: 1} }
		ictx := f.ictx(t, opGet, bean())
		reflectCopy := rep.NewReflectCopyStore(f.reg)
		copyIn := testing.AllocsPerRun(100, func() {
			if _, _, err := reflectCopy.Store(ictx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs := tierHitAllocs(t, bean); allocs > 5+copyIn {
			t.Errorf("L1 miss, tier hit: %v allocs per call, want ≤ 5 + %v (reflection copy-in)", allocs, copyIn)
		}
	})
}

// tierHitAllocs measures a tier hit of a result the origin answers with
// result: a client whose L1 holds one entry alternates between two
// keys a first round filled into the daemon, so every call misses L1
// and is served by the tier.
func tierHitAllocs(t *testing.T, result func() any) float64 {
	f := newFixture(t)
	inv := invalidate.New(testGraph(), nil)
	remote, _ := startTierDaemon(t, f, inv)
	c := newCache(t, f, func(cfg *Config) {
		cfg.Store = nil
		cfg.Rep = rep.NewRegistry(f.reg, f.codec)
		cfg.Invalidator = inv
		cfg.Tiers = []tier.Tier{remote}
		cfg.MaxEntries = 1
	})
	next, _ := countingNext(f, t, result)
	keys := []string{"a", "b"}
	for _, k := range keys {
		if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: k}), next); err != nil {
			t.Fatal(err)
		}
	}

	ictx := f.reqCtx(opGet, soap.Param{Name: "q"})
	i := 0
	serve := func() {
		ictx.Params[0].Value = keys[i%len(keys)]
		ictx.Result, ictx.CacheHit = nil, false
		i++
		if err := c.HandleInvoke(ictx, failNext); err != nil || !ictx.CacheHit {
			t.Fatalf("tier hit: %v (hit %v)", err, ictx.CacheHit)
		}
	}
	serve()
	before := c.Stats().TierHits
	allocs := testing.AllocsPerRun(200, serve)
	if got := c.Stats().TierHits - before; got != 201 {
		t.Fatalf("%d of 201 calls were tier hits", got)
	}
	return allocs
}

// TestTierFillAllocs bounds a warm fill's write-through to the shared
// tier: tierFill over a cluster.Remote to an in-process daemon, both
// ends counted. The client encodes the binser value into a pooled
// buffer and builds the put frame around it in the connection's
// scratch, so no allocation is left on the client side for the value.
// What is left is the daemon's: the stamps it decodes, the one copy of
// the value it keeps, and the entry.
func TestTierFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := newFixture(t)
	inv := invalidate.New(testGraph(), nil)
	remote, daemon := startTierDaemon(t, f, inv)
	c := newCache(t, f, func(cfg *Config) {
		cfg.Store = nil
		cfg.Rep = rep.NewRegistry(f.reg, f.codec)
		cfg.Invalidator = inv
		cfg.Tiers = []tier.Tier{remote}
	})
	ictx := f.ictx(t, opGet, &item{Name: "n", Score: 1, Tags: []string{"a", "b"}}, soap.Param{Name: "q", Value: "a"})
	tk := tier.KeyOf([]byte("fill"))
	if _, _, err := remote.Get(ictx.Ctx, tk); err != nil { // first contact: the stamps below carry the daemon's boot
		t.Fatal(err)
	}
	stamps := c.tierStamps(tk, ictx)
	fill := func() {
		c.tierFill(tk, OperationPolicy{Cacheable: true}, ictx, stamps)
		if _, ok, _ := daemon.Get(ictx.Ctx, tk); !ok {
			t.Fatal("the daemon did not keep the fill")
		}
	}
	fill()
	allocs := testing.AllocsPerRun(200, fill)
	if allocs > 4 {
		t.Errorf("tier write-through: %v allocs per fill, want ≤ 4", allocs)
	}
}
