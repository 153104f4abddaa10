// Cluster: the shared L2 tier in one process-shaped diorama.
//
// It boots a wscached-style daemon on loopback TCP and two independent
// client stacks ("process A" and "process B"), each with its own L1
// cache and invalidator, both pointed at the daemon (DESIGN.md §5h).
// The walkthrough shows the two claims the tier exists for:
//
//  1. sharing — a response cached by A is served to B from the daemon
//     without touching the origin, even though B's L1 has never seen
//     it;
//
//  2. coherence — a write committed by A bumps the shared epoch, so
//     B's L1 copy is refused as stale on B's next read after daemon
//     contact.
//
// Run it:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// process is one simulated client process: its own L1 and invalidator,
// sharing only the origin and the daemon with its peers.
type process struct {
	cache *core.Cache
	get   *client.Call
	put   *client.Call
}

func newProcess(tr transport.Transport, codec *soap.Codec, daemonAddr string) (*process, error) {
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	remote, err := cluster.New(cluster.Config{
		Addrs:       []string{daemonAddr},
		Inv:         inv,
		BaseContext: context.Background(),
	})
	if err != nil {
		return nil, err
	}
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
			},
		},
	})
	mk := func(op string) *client.Call {
		return client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace,
			op, "urn:GoogleSearchAction",
			client.Options{Handlers: []client.Handler{cache}})
	}
	return &process{cache: cache, get: mk(googleapi.OpGetItem), put: mk(googleapi.OpPutItem)}, nil
}

func (p *process) read(name, key string) error {
	ictx, err := p.get.InvokeContext(context.Background(), googleapi.GetItemParams(key)...)
	if err != nil {
		return err
	}
	fmt.Printf("%s reads %q  -> %q  (hit=%v, tier hits so far: %d)\n",
		name, key, ictx.Result, ictx.CacheHit, p.cache.Stats().TierHits)
	return nil
}

func run() error {
	// The origin: the dummy Google dispatcher with its mutable item
	// store, shared by both processes over an in-process transport.
	dispatcher, codec, err := googleapi.NewDispatcher()
	if err != nil {
		return err
	}
	tr := &transport.InProcess{Handler: dispatcher}

	// The daemon: a byte-oriented core.Cache behind the cluster wire
	// protocol, exactly what cmd/wscached runs.
	dinv := invalidate.New(nil, nil)
	shared := core.MustNew(core.Config{
		KeyGen:      rep.NewStringKey(),
		Store:       rep.NewCloneCopyStore(),
		DefaultTTL:  time.Hour,
		Invalidator: dinv,
	})
	srv, err := cluster.NewServer(cluster.ServerConfig{Tier: shared, Inv: dinv})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(context.Background(), lis) }()
	defer srv.Close()
	fmt.Printf("daemon listening on %s\n\n", lis.Addr())

	a, err := newProcess(tr, codec, lis.Addr().String())
	if err != nil {
		return err
	}
	b, err := newProcess(tr, codec, lis.Addr().String())
	if err != nil {
		return err
	}

	// A writes and reads: the read misses everywhere, hits the origin,
	// and the response is pushed down into the shared daemon.
	if _, err := a.put.InvokeContext(context.Background(), googleapi.PutItemParams("greeting", "hello from A")...); err != nil {
		return err
	}
	if err := a.read("A", "greeting"); err != nil {
		return err
	}

	// B has never seen the key, yet its first read is a cache hit:
	// the daemon answers, the origin is not consulted.
	if err := b.read("B", "greeting"); err != nil {
		return err
	}
	if err := b.read("B", "greeting"); err != nil { // now L1-resident in B
		return err
	}

	// A overwrites the item. The write bumps the item's keyspace epoch
	// in A, and A pushes the bump to the daemon.
	if _, err := a.put.InvokeContext(context.Background(), googleapi.PutItemParams("greeting", "rewritten by A")...); err != nil {
		return err
	}
	fmt.Println("\nA rewrites \"greeting\"")

	// B touches the daemon on a cold key, which syncs the shared epoch
	// table; B's L1 copy of "greeting" is now provably stale and the
	// next read refetches the new value.
	if err := b.read("B", "unrelated"); err != nil {
		return err
	}
	if err := b.read("B", "greeting"); err != nil {
		return err
	}
	return nil
}
