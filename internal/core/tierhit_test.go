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

// TestTierHitAllocs bounds an L1 miss the shared tier serves, the
// client cache, its cluster.Remote and an in-process cluster.Server in
// front of a daemon cache counted together. What is left is what the
// client keeps: the value frame the promoted L1 entry aliases, the
// entry, the payload decoded from the frame, and the copy handed to the
// caller. The read-set stamp, the rep name and the daemon's side
// allocate nothing.
func TestTierHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

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
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	inv := invalidate.New(testGraph(), nil)
	remote, err := cluster.New(cluster.Config{Addrs: []string{lis.Addr().String()}, Inv: inv, BaseContext: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// An L1 of one entry: alternating between two keys, every call
	// misses L1 and is served by the tier.
	c := newCache(t, f, func(cfg *Config) {
		cfg.Store = nil
		cfg.Rep = rep.NewRegistry(f.reg, f.codec)
		cfg.Invalidator = inv
		cfg.Tiers = []tier.Tier{remote}
		cfg.MaxEntries = 1
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "n", Score: 1} })
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
	if allocs > 5 {
		t.Errorf("L1 miss, tier hit: %v allocs per call, want ≤ 5", allocs)
	}
}
