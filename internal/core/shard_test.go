package core

import (
	"context"
	"fmt"
	"repro/internal/rep"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/soap"
)

// newShardCache builds a cache over plain Go objects (pass-by-
// reference store, string keys) so shard-structure tests need no SOAP
// fixtures.
func newShardCache(t testing.TB, mutate func(*Config)) *Cache {
	t.Helper()
	cfg := Config{
		KeyGen: rep.NewStringKey(),
		Store:  rep.NewRefStore(nil, true),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// shardReq fabricates a request for query q.
func shardReq(q string) *client.Context {
	return &client.Context{
		Ctx:       context.Background(),
		Endpoint:  "http://test/endpoint",
		Namespace: "urn:ShardTest",
		Operation: opGet,
		Params:    []soap.Param{{Name: "q", Value: q}},
	}
}

// TestShardedEvictionRespectsGlobalBound floods a bounded sharded
// cache with distinct keys: the per-shard slices must keep the total
// at or under MaxEntries no matter how keys hash.
func TestShardedEvictionRespectsGlobalBound(t *testing.T) {
	const maxEntries = 8
	c := newShardCache(t, func(cfg *Config) { cfg.MaxEntries = maxEntries; cfg.Shards = 5 })
	if c.eng.Shards() != 8 {
		t.Errorf("Cache.eng.Shards() = %d, want 8 (5 rounded up, within the entry budget)", c.eng.Shards())
	}
	next := func(ictx *client.Context) error {
		ictx.Result = &benchResult{Name: "v"}
		return nil
	}
	for i := 0; i < 200; i++ {
		if err := c.HandleInvoke(shardReq(fmt.Sprintf("q%d", i)), next); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Stats().Entries; n > maxEntries || n == 0 {
		t.Errorf("Len() = %d, want within (0, %d]", n, maxEntries)
	}
	if s := c.Stats(); s.Entries != c.Stats().Entries || s.Evictions == 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestDistinctKeysDistinctEntries drives many keys through the digest
// table and verifies each one serves its own value back — a routing or
// digest-aliasing bug would cross-serve results.
func TestDistinctKeysDistinctEntries(t *testing.T) {
	c := newShardCache(t, nil)
	next := func(ictx *client.Context) error {
		ictx.Result = &benchResult{Name: ictx.Params[0].Value.(string)}
		return nil
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.HandleInvoke(shardReq(fmt.Sprintf("q%d", i)), next); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Entries != n {
		t.Fatalf("Len() = %d, want %d", c.Stats().Entries, n)
	}
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("q%d", i)
		ictx := shardReq(q)
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
		if !ictx.CacheHit {
			t.Fatalf("key %s missed after fill", q)
		}
		if got := ictx.Result.(*benchResult).Name; got != q {
			t.Fatalf("key %s served value %q", q, got)
		}
	}
}

// TestStatsDuringConcurrentLoad runs snapshots against a live fill
// storm: every snapshot must return promptly (the goroutine finishes)
// and see consistent non-negative structure numbers.
func TestStatsDuringConcurrentLoad(t *testing.T) {
	c := newShardCache(t, func(cfg *Config) { cfg.MaxEntries = 32 })
	next := func(ictx *client.Context) error {
		ictx.Result = &benchResult{Name: "v"}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.HandleInvoke(shardReq(fmt.Sprintf("q%d", (g*31+i)%128)), next); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := c.Stats()
		if s.Bytes < 0 || s.Entries < 0 {
			t.Errorf("negative structure stats: %+v", s)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentStress is the -race correctness storm: concurrent
// hits, misses, expirations, coalesced fills, Clear, sweeps and
// snapshots against one sharded cache, with per-key values so any
// digest misroute or lost store surfaces as a wrong or missing result.
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 400
		hotKeys    = 48
		maxEntries = 64
	)
	c := newShardCache(t, func(cfg *Config) {
		cfg.MaxEntries = maxEntries
		cfg.DefaultTTL = 2 * time.Millisecond // churn expirations under load
		cfg.Coalesce = true
		cfg.StaleIfError = 10 * time.Second
	})
	keys := make([]string, hotKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("stress key %d", i)
	}
	var calls atomic.Int64
	next := func(ictx *client.Context) error {
		n := calls.Add(1)
		if n%13 == 0 {
			return fmt.Errorf("injected backend failure %d", n)
		}
		ictx.Result = &benchResult{Name: ictx.Params[0].Value.(string)}
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw := NewSweeperContext(ctx, c, time.Millisecond)
	defer sw.Shutdown()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := keys[(g*17+i)%hotKeys]
				ictx := shardReq(q)
				err := c.HandleInvoke(ictx, next)
				if err != nil {
					continue // injected failure with nothing stale to serve
				}
				if got := ictx.Result.(*benchResult).Name; got != q {
					t.Errorf("key %q served value %q", q, got)
					return
				}
				switch {
				case g == 0 && i%101 == 100:
					c.Clear()
				case g == 1 && i%67 == 66:
					c.SweepExpired()
				case i%29 == 0:
					if s := c.Stats(); s.Bytes < 0 || s.Entries < 0 {
						t.Errorf("negative stats mid-storm: %+v", s)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesced invariants.
	if n := c.Stats().Entries; n > maxEntries {
		t.Errorf("Len() = %d exceeds MaxEntries %d", n, maxEntries)
	}
	s := c.Stats()
	if s.Bytes < 0 || s.Entries != c.Stats().Entries {
		t.Errorf("quiesced stats = %+v, len = %d", s, c.Stats().Entries)
	}
	// No lost stores: every key must still be servable with its own
	// value — fresh from the cache or refilled through the pivot.
	okNext := func(ictx *client.Context) error {
		ictx.Result = &benchResult{Name: ictx.Params[0].Value.(string)}
		return nil
	}
	for _, q := range keys {
		ictx := shardReq(q)
		if err := c.HandleInvoke(ictx, okNext); err != nil {
			t.Fatal(err)
		}
		if got := ictx.Result.(*benchResult).Name; got != q {
			t.Errorf("post-storm key %q served %q", q, got)
		}
	}
	c.Clear()
	if c.Stats().Entries != 0 || c.Stats().Bytes != 0 {
		t.Error("Clear left residue")
	}
}
