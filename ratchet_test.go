package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/tier"
	"repro/internal/transport"
)

// The cost ratchet: serving paths driven through the production stack
// with one goroutine and a fixed seed, each held to ceilings on what
// it allocates per operation and to exact per-operation deltas of the
// counters that show a lost hit or an extra round trip. Counts are
// what this kind of host resolves; timing is the referee's job
// (benchmark/). A ceiling is set 2 % (allocs/op) and 3 % (B/op) above
// the count measured when it was last lowered; CHANGES.md records
// every change to one.

// Origin-miss ceilings; twelve runs measured 125.1–125.8 allocs/op and
// 25 283–25 348 B/op.
const (
	originMissMaxAllocs = 128
	originMissMaxBytes  = 26_100
)

// TestRatchetOriginMiss drives never-repeating doGoogleSearch calls the
// way the referee's origin_miss workload does: a caching client (L1 of
// 1024 entries in front of a cluster.Remote) over loopback HTTP to the
// googleapi dispatcher, with an in-process cluster.Server daemon
// behind the tier. Every call misses L1 and L2, is fetched from the
// origin in one attempt, and is written through to the daemon once.
// The L1 is past its capacity when the measurement starts, so each
// fill also evicts. Allocation counts cover the whole process —
// client, origin server and daemon — as the referee's do; the
// collector is off while they are taken, so no pool is drained
// mid-run.
func TestRatchetOriginMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	origin := &http.Server{Handler: disp, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- origin.Serve(lis) }()
	defer func() {
		origin.Close()
		<-served
	}()

	daemon := startClusterDaemon(t, "")
	inv := invalidate.New(googleapi.ItemGraph(), nil)
	remote, err := cluster.New(cluster.Config{Addrs: []string{daemon.addr}, Inv: inv, PoolSize: 1, BaseContext: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	cache := core.MustNew(core.Config{
		KeyGen:      rep.NewStringKey(),
		Rep:         rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:  time.Hour,
		MaxEntries:  1024,
		Invalidator: inv,
		Tiers:       []tier.Tier{remote},
		Policy:      core.NewPolicy(0, googleapi.OpGoogleSearch, googleapi.OpGetItem),
	})
	reg := obs.NewRegistry()
	httpTr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer httpTr.CloseIdleConnections()
	search := client.NewCall(codec,
		&transport.HTTP{Client: &http.Client{Transport: httpTr, Timeout: transport.DefaultTimeout}},
		"http://"+lis.Addr().String()+"/", googleapi.Namespace, googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}, Retry: &transport.RetryPolicy{Obs: reg}})

	// Queries are drawn from a fixed seed and boxed up front, so the
	// loop allocates nothing of its own.
	const warm, ops = 1100, 1000
	rng := rand.New(rand.NewSource(7))
	queries := make([]any, warm+ops)
	for i := range queries {
		queries[i] = fmt.Sprintf("%x %x q%d", rng.Uint32(), rng.Uint32(), i)
	}
	params := googleapi.SearchParams("ratchet-key", "", 0, 10, false, "", false, "")
	call := func(i int) {
		params[1].Value = queries[i]
		ictx, err := search.InvokeContext(ctx, params...)
		if err != nil || ictx.CacheHit {
			t.Fatalf("call %d: err %v, hit %v", i, err, ictx != nil && ictx.CacheHit)
		}
	}
	for i := 0; i < warm; i++ {
		call(i)
	}

	attempts := reg.Counter("transport.attempts")
	attempts0, stores0 := attempts.Load(), remote.TierStats().Stores
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+ops; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)

	allocs := float64(after.Mallocs-before.Mallocs) / ops
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("origin miss: %.1f allocs/op, %.0f B/op", allocs, bytes)
	if allocs > originMissMaxAllocs {
		t.Errorf("origin miss: %.1f allocs/op, ceiling %d", allocs, originMissMaxAllocs)
	}
	if bytes > originMissMaxBytes {
		t.Errorf("origin miss: %.0f B/op, ceiling %d", bytes, originMissMaxBytes)
	}
	if d := attempts.Load() - attempts0; d != ops {
		t.Errorf("transport.attempts rose by %d over %d calls, want exactly one each", d, ops)
	}
	if d := remote.TierStats().Stores - stores0; d != ops {
		t.Errorf("tier stores rose by %d over %d calls, want exactly one each", d, ops)
	}
}
