package cluster

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/tier"
	"repro/internal/transport"
)

// TestLongItemKeyKeepsTheTierOn: a doPutItem whose key is longer than
// any frame's keyspace name (70 KB, over the wire's u16 length) goes
// through L1+L2 like any other write. Its bump flushes, later reads on
// the same daemon keep working, nothing is deferred, and no read after
// the write, of the item or of the listing, returns a stale value.
func TestLongItemKeyKeepsTheTierOn(t *testing.T) {
	dinv := invalidate.New(nil, nil)
	srv, err := NewServer(ServerConfig{Tier: engine.NewTier(engine.Config{}, dinv, nil), Inv: dinv})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	var once sync.Once
	t.Cleanup(func() {
		once.Do(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	})

	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	remote := newClient(t, lis.Addr().String(), inv)
	cache := core.MustNew(core.Config{
		KeyGen:      rep.NewStringKey(),
		Rep:         rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:  time.Hour,
		Invalidator: inv,
		Tiers:       []tier.Tier{remote},
		Policy: core.Policy{
			DefaultExplicit: true,
			Operations: map[string]core.OperationPolicy{
				googleapi.OpGetItem: {Cacheable: true},
				"doListItems":       {Cacheable: true},
			},
		},
	})
	tr := &transport.InProcess{Handler: disp}
	call := func(op string) *client.Call {
		return client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace, op, "",
			client.Options{Handlers: []client.Handler{cache}})
	}
	get, put, list := call(googleapi.OpGetItem), call(googleapi.OpPutItem), call("doListItems")
	ctx := context.Background()
	check := func(what string, got any, err error, want string) {
		t.Helper()
		if err != nil || got != want {
			t.Fatalf("%s = %.40q, %v; want %.40q", what, got, err, want)
		}
	}

	long := strings.Repeat("k", 70<<10)
	res, err := list.Invoke(ctx)
	check("listing before the write", res, err, "")
	for _, v := range []string{"v1", "v2"} {
		_, err := put.Invoke(ctx, googleapi.PutItemParams(long, v)...)
		check("put", "", err, "")
		for i := 0; i < 2; i++ {
			res, err := get.Invoke(ctx, googleapi.GetItemParams(long)...)
			check("long item after the write", res, err, v)
			res, err = list.Invoke(ctx)
			check("listing after the write", res, err, long)
		}
	}
	for _, k := range []string{"a", "b", "c"} {
		res, err := get.Invoke(ctx, googleapi.GetItemParams(k)...)
		check("short item "+k, res, err, "")
	}
	if d := remote.deferred.Load(); d != 0 {
		t.Errorf("deferred = %d flushes, want 0", d)
	}
	if e := remote.TierStats().Errors; e != 0 {
		t.Errorf("tier errors = %d, want 0", e)
	}
	if s := cache.Stats(); s.TierErrors != 0 {
		t.Errorf("cache saw %d tier errors, want 0", s.TierErrors)
	}
}
