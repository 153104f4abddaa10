// Benchmarks for the shared L2 tier (DESIGN.md §5h): where a response
// is served from decides what a request costs. The three benchmarks
// walk the hierarchy one level at a time over the same operation and
// the same HTTP loopback origin, so the levels are comparable:
//
//   - ClusterL1Hit:  in-process hit, no wire at all
//   - ClusterL2Hit:  L1 miss served by a wscached-style daemon over the
//     cluster protocol (loopback TCP round trip + wire decode)
//   - ClusterOrigin: full origin invocation (loopback HTTP round trip +
//     SOAP encode/serve/decode)
//
// The acceptance claim is the ordering L1 < L2 < origin: a daemon hit
// must beat re-invoking the backend, or the shared tier has no reason
// to exist.
package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
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

// benchClusterEnv is the shared scenery: an item-store origin behind
// real HTTP and a shared daemon on loopback TCP.
type benchClusterEnv struct {
	codec      *soap.Codec
	originURL  string
	daemonAddr string
}

func newBenchClusterEnv(b *testing.B) *benchClusterEnv {
	b.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		b.Fatal(err)
	}
	googleapi.NewItemStore().Register(disp)
	srv := httptest.NewServer(disp)
	b.Cleanup(srv.Close)
	daemon := startClusterDaemon(b, "")
	return &benchClusterEnv{codec: codec, originURL: srv.URL, daemonAddr: daemon.addr}
}

// stack builds one client process: L1 cache over the shared daemon,
// calling the HTTP origin. withTier false gives the cacheless baseline.
func (e *benchClusterEnv) stack(b *testing.B, withTier bool) (*core.Cache, *client.Call) {
	b.Helper()
	var handlers []client.Handler
	var cache *core.Cache
	if withTier {
		inv := invalidate.New(googleapi.ItemGraph(), nil)
		remote, err := cluster.New(cluster.Config{
			Addrs:       []string{e.daemonAddr},
			Inv:         inv,
			BaseContext: context.Background(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { remote.Close() })
		cache = core.MustNew(core.Config{
			KeyGen:      rep.NewStringKey(),
			Rep:         rep.NewRegistry(e.codec.Registry(), e.codec),
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
		handlers = append(handlers, cache)
	}
	call := client.NewCall(e.codec, &transport.HTTP{}, e.originURL, googleapi.Namespace,
		googleapi.OpGetItem, "urn:GoogleSearchAction",
		client.Options{Handlers: handlers})
	return cache, call
}

// BenchmarkClusterL1Hit serves one warm key from the process-local
// cache; the daemon is configured but never consulted after the fill.
func BenchmarkClusterL1Hit(b *testing.B) {
	e := newBenchClusterEnv(b)
	_, call := e.stack(b, true)
	ctx := context.Background()
	params := googleapi.GetItemParams("warm")
	if _, err := call.Invoke(ctx, params...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call.Invoke(ctx, params...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterL2Hit reads keys another process already pushed into
// the daemon: every iteration is an L1 miss answered by the shared
// tier without touching the origin — the cross-process case the tier
// exists for.
func BenchmarkClusterL2Hit(b *testing.B) {
	e := newBenchClusterEnv(b)
	_, seeder := e.stack(b, true)
	reader, call := e.stack(b, true)
	ctx := context.Background()
	keys := make([][]soap.Param, b.N)
	for i := range keys {
		keys[i] = googleapi.GetItemParams(fmt.Sprintf("k%d", i))
		if _, err := seeder.Invoke(ctx, keys[i]...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call.Invoke(ctx, keys[i]...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := reader.Stats().TierHits; hits != int64(b.N) {
		b.Fatalf("tier hits = %d, want %d (every read must be served by the daemon)", hits, b.N)
	}
}

// BenchmarkClusterOrigin is the no-cache floor: every read pays the
// full SOAP round trip to the HTTP origin.
func BenchmarkClusterOrigin(b *testing.B) {
	e := newBenchClusterEnv(b)
	_, call := e.stack(b, false)
	ctx := context.Background()
	params := googleapi.GetItemParams("origin")
	if _, err := call.Invoke(ctx, params...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call.Invoke(ctx, params...); err != nil {
			b.Fatal(err)
		}
	}
}
