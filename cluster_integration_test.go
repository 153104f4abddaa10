// Whole-stack integration tests for the shared L2 tier: two caching
// client stacks ("processes") sharing one wscached-style daemon, over
// real loopback TCP, exercising the acceptance claims of DESIGN.md
// §5h — a response cached by one process is served to another from the
// daemon without touching the origin, and an epoch bump committed by
// one process stales the other's L1 on its next daemon contact. Run
// with -race; the protocol client, the daemon, and both caches are
// concurrent.
package repro_test

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
)

// clusterDaemon is an in-test wscached: a core.Cache holding wire
// entries behind a cluster.Server, bindable to a fixed address so a
// restart can reuse it. requests counts the protocol requests it
// served (clusterd.requests).
type clusterDaemon struct {
	srv      *cluster.Server
	addr     string
	requests *obs.Counter
	stop     func()
}

// startClusterDaemon boots a daemon the way cmd/wscached does. addr ""
// picks a free loopback port; a restart passes the previous address
// back in.
func startClusterDaemon(t testing.TB, addr string) *clusterDaemon {
	t.Helper()
	dinv := invalidate.New(nil, nil)
	cache := core.MustNew(core.Config{
		KeyGen:      rep.NewStringKey(),
		Store:       rep.NewCloneCopyStore(),
		DefaultTTL:  time.Hour,
		Invalidator: dinv,
	})
	reg := obs.NewRegistry()
	srv, err := cluster.NewServer(cluster.ServerConfig{Tier: cache, Inv: dinv, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var lis net.Listener
	// A restart rebinds the address the old incarnation just released;
	// give the kernel a moment to finish tearing it down.
	for i := 0; ; i++ {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 50 {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	var once sync.Once
	d := &clusterDaemon{srv: srv, addr: lis.Addr().String(), requests: reg.Counter("clusterd.requests")}
	d.stop = func() {
		once.Do(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Errorf("daemon Serve: %v", err)
			}
		})
	}
	t.Cleanup(d.stop)
	return d
}

// clusterProcess is one simulated client process: its own invalidator,
// L1 cache, and protocol client, sharing the backend and the daemon
// with its peers.
type clusterProcess struct {
	cache *core.Cache
	get   *client.Call
	put   *client.Call
}

func newClusterProcess(t testing.TB, tr transport.Transport, codec *soap.Codec, daemonAddr string) *clusterProcess {
	t.Helper()
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	remote, err := cluster.New(cluster.Config{
		Addrs:       []string{daemonAddr},
		Inv:         inv,
		BaseContext: context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
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
	mkCall := func(op string) *client.Call {
		return client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace,
			op, "urn:GoogleSearchAction",
			client.Options{Handlers: []client.Handler{cache}})
	}
	return &clusterProcess{
		cache: cache,
		get:   mkCall(googleapi.OpGetItem),
		put:   mkCall(googleapi.OpPutItem),
	}
}

// countingTransport counts invocations that reach the origin.
type countingTransport struct {
	inner transport.Transport
	n     atomic.Int64
}

func (c *countingTransport) Send(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	c.n.Add(1)
	return c.inner.Send(ctx, req)
}

// TestIntegrationClusterSharedTier is the acceptance test: a cross-
// process L2 hit, and cross-process L1 invalidation via the epoch
// protocol.
func TestIntegrationClusterSharedTier(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	googleapi.NewItemStore().Register(disp)
	origin := &countingTransport{inner: &transport.InProcess{Handler: disp}}
	daemon := startClusterDaemon(t, "")

	procA := newClusterProcess(t, origin, codec, daemon.addr)
	procB := newClusterProcess(t, origin, codec, daemon.addr)
	ctx := context.Background()

	// Seed the item through A (writes bypass the cache and bump epochs).
	if _, err := procA.put.Invoke(ctx, googleapi.PutItemParams("x", "1")...); err != nil {
		t.Fatal(err)
	}
	originAfterSeed := origin.n.Load()

	// A's first read misses everywhere and fills both its L1 and the
	// shared daemon.
	ictx, err := procA.get.InvokeContext(ctx, googleapi.GetItemParams("x")...)
	if err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit || ictx.Result != "1" {
		t.Fatalf("A first read: hit=%v res=%v, want miss of 1", ictx.CacheHit, ictx.Result)
	}
	if got := origin.n.Load(); got != originAfterSeed+1 {
		t.Fatalf("origin calls after A's miss = %d, want %d", got, originAfterSeed+1)
	}

	// B has never seen the key: its read must be served from the shared
	// daemon — a cross-process hit, no origin contact.
	ictx, err = procB.get.InvokeContext(ctx, googleapi.GetItemParams("x")...)
	if err != nil {
		t.Fatal(err)
	}
	if !ictx.CacheHit || ictx.Result != "1" {
		t.Fatalf("B first read: hit=%v res=%v, want an L2 hit of 1", ictx.CacheHit, ictx.Result)
	}
	if got := origin.n.Load(); got != originAfterSeed+1 {
		t.Fatalf("origin calls after B's L2 hit = %d, want %d (B must not invoke the origin)", got, originAfterSeed+1)
	}
	if s := procB.cache.Stats(); s.TierHits == 0 {
		t.Fatalf("B's cache recorded no tier hit: %+v", s)
	}

	// B's next read of the same key is a plain L1 hit — still no origin.
	if res, err := procB.get.Invoke(ctx, googleapi.GetItemParams("x")...); err != nil || res != "1" {
		t.Fatalf("B L1 read: %v %v", res, err)
	}
	if got := origin.n.Load(); got != originAfterSeed+1 {
		t.Fatalf("origin calls after B's L1 hit = %d, want %d", got, originAfterSeed+1)
	}

	// A writes. The epoch bump reaches the daemon before the put
	// returns; B's L1 still holds the old value under its old stamps.
	if _, err := procA.put.Invoke(ctx, googleapi.PutItemParams("x", "2")...); err != nil {
		t.Fatal(err)
	}

	// Any daemon contact at all synchronizes B — here, a read of an
	// unrelated cold key. The sync applies the bumped epochs to B's
	// invalidator, staling its L1 entry for "x".
	if _, err := procB.get.Invoke(ctx, googleapi.GetItemParams("unrelated")...); err != nil {
		t.Fatal(err)
	}

	// B's next read of "x" must not serve its L1 copy (stale) nor the
	// daemon's (refused by the daemon's own stamp check): it refetches
	// the post-write value from the origin.
	before := origin.n.Load()
	ictx, err = procB.get.InvokeContext(ctx, googleapi.GetItemParams("x")...)
	if err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit || ictx.Result != "2" {
		t.Fatalf("B post-write read: hit=%v res=%v, want a miss serving 2", ictx.CacheHit, ictx.Result)
	}
	if got := origin.n.Load(); got != before+1 {
		t.Fatalf("origin calls for B's post-write read = %d, want %d", got, before+1)
	}
}

// TestChaosClusterDaemonRestart extends the chaos suite across the
// wire: a mixed read/write load through an L1+L2 stack while the
// shared daemon is killed and rebooted mid-load. The restart drops
// every entry and epoch the daemon held; the client must detect the
// new incarnation (boot ID) and invalidate its L1 rather than trust
// stamps minted under the old one. The oracle is the same
// stale-after-write floor as TestChaosNoStaleAfterWrite; the daemon
// outage itself must stay invisible (tier errors are soft misses).
func TestChaosClusterDaemonRestart(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	googleapi.NewItemStore().Register(disp)
	disp.SetValidatorPolicy(time.Now().Add(-time.Hour), time.Hour) // lying 304s, as in the base chaos run

	daemon := startClusterDaemon(t, "")
	origin := &countingTransport{inner: &transport.InProcess{Handler: disp}}
	proc := newClusterProcess(t, origin, codec, daemon.addr)

	const hotKeys = 4
	hot := make([]string, hotKeys)
	for i := range hot {
		hot[i] = fmt.Sprintf("k%d", i)
	}
	var (
		writeMu    [hotKeys]sync.Mutex
		attempted  [hotKeys]atomic.Int64
		committed  [hotKeys]atomic.Int64
		violations atomic.Int64
	)
	keyIndex := func(q string) int {
		if len(q) < 2 || q[0] != 'k' {
			return -1
		}
		n, err := strconv.Atoi(q[1:])
		if err != nil || n < 0 || n >= hotKeys {
			return -1
		}
		return n
	}

	// Kill and reboot the daemon mid-load, twice, on the same address.
	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		current := daemon
		for i := 0; i < 2; i++ {
			select {
			case <-stopChurn:
				return
			case <-time.After(50 * time.Millisecond):
			}
			current.stop()
			current = startClusterDaemon(t, current.addr)
		}
	}()

	ctx := context.Background()
	res, err := loadgen.RunContext(ctx, loadgen.Config{
		Concurrency: 8,
		Requests:    1500,
		HitRatio:    0.5,
		WriteRatio:  0.2,
		HotQueries:  hot,
		MissQuery:   func(i int) string { return fmt.Sprintf("cold-%d", i) },
		Do: func(q string) error {
			k := keyIndex(q)
			var floor int64
			if k >= 0 {
				floor = committed[k].Load()
			}
			ictx, err := proc.get.InvokeContext(ctx, googleapi.GetItemParams(q)...)
			if err != nil {
				return err
			}
			if k < 0 {
				return nil
			}
			if got := parseChaosValue(ictx.Result); got < floor {
				violations.Add(1)
				return fmt.Errorf("stale-after-write: key %s read %d, floor %d", q, got, floor)
			}
			return nil
		},
		Write: func(q string) error {
			k := keyIndex(q)
			writeMu[k].Lock()
			defer writeMu[k].Unlock()
			v := attempted[k].Load() + 1
			attempted[k].Store(v)
			_, err := proc.put.Invoke(ctx, googleapi.PutItemParams(q, strconv.FormatInt(v, 10))...)
			if err == nil {
				committed[k].Store(v)
			}
			return err
		},
		Classify: func(err error) string { return "error" },
	})
	close(stopChurn)
	churn.Wait()
	if err != nil {
		t.Fatal(err)
	}

	stats := proc.cache.Stats()
	t.Logf("cluster chaos run: %v; origin calls %d; hits=%d misses=%d tierHits=%d tierErrors=%d invalidations=%d",
		res, origin.n.Load(), stats.Hits, stats.Misses, stats.TierHits, stats.TierErrors, stats.Invalidations)
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d stale-after-write violations across daemon restarts", n)
	}
	if res.Classes["error"] != 0 {
		// Nothing injects faults at the transport; any surfaced error
		// means a daemon outage leaked through the fail-soft tier path.
		t.Fatalf("load surfaced %d errors; daemon restarts must be invisible", res.Classes["error"])
	}
	if res.Writes == 0 {
		t.Error("chaos run issued no writes")
	}
}
