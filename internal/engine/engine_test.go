package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/tier"
)

// Keyspaces the tests stamp entries with and bump.
const (
	ksDep   invalidate.Keyspace = "ks"
	ksOther invalidate.Keyspace = "other"
	ksItem  invalidate.Keyspace = "item:a"
)

// fakeClock is a manually advanced clock safe for concurrent reads.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// counted is a full counter set over a private registry.
func counted() Counters { return CoreCounters(obs.NewRegistry()) }

// key fabricates distinct keys that all route to shard 0 of any engine.
func key(i int) Key { return Key{Hi: uint64(i) + 1, Lo: 0} }

// TestLadder is the one table for the one lookup/fill rule: each case
// builds an engine, runs a script against a single key (or a few, for
// the eviction cases) and checks what a Serve lookup then finds, what
// the other modes find, what is left resident, and what was counted.
func TestLadder(t *testing.T) {
	const ttl = time.Minute
	lastMod := time.Unix(500, 0)
	type counts struct{ hits, misses, stores, expirations, evictions, invalidations int64 }

	cases := []struct {
		name string
		cfg  Config
		// run fills and ages the engine; inv bumps ksDep.
		run func(e *Engine[string], clk *fakeClock, inv *invalidate.Invalidator)
		// serve is the expected outcome of Lookup(key(0), Serve),
		// performed once after run.
		serve      Status
		serveValue string
		// after the Serve lookup: what the degraded modes see.
		stale     Status // Lookup(key(0), ServeStale)
		validator Status // Lookup(key(0), Validator)
		resident  int    // Len()
		want      counts
	}{
		{
			name: "fresh",
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl})
				clk.Advance(ttl) // exactly at the deadline is still fresh
			},
			serve: Found, serveValue: "v",
			stale: Found, validator: Absent, resident: 1,
			want: counts{hits: 1, stores: 1},
		},
		{
			name: "never expires without a TTL",
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1})
				clk.Advance(1000 * time.Hour)
			},
			serve: Found, serveValue: "v",
			stale: Found, validator: Absent, resident: 1,
			want: counts{hits: 1, stores: 1},
		},
		{
			name:  "absent",
			run:   func(*Engine[string], *fakeClock, *invalidate.Invalidator) {},
			serve: Absent, stale: Absent, validator: Absent,
			want: counts{misses: 1},
		},
		{
			name: "expired and dropped",
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl, LastModified: lastMod})
				clk.Advance(ttl + time.Second)
			},
			// No retention rule: even a validator-bearing entry goes.
			serve: Expired, stale: Absent, validator: Absent, resident: 0,
			want: counts{misses: 1, stores: 1, expirations: 1},
		},
		{
			name: "expired, retained for revalidation",
			cfg:  Config{RetainValidated: true},
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl, LastModified: lastMod})
				clk.Advance(ttl + time.Second)
			},
			// Kept, but not servable without the origin's say-so.
			serve: Expired, stale: Expired, validator: Found, resident: 1,
			want: counts{misses: 1, stores: 1, expirations: 1},
		},
		{
			name: "expired without a validator is not retained for revalidation",
			cfg:  Config{RetainValidated: true},
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl})
				clk.Advance(ttl + time.Second)
			},
			serve: Expired, stale: Absent, validator: Absent, resident: 0,
			want: counts{misses: 1, stores: 1, expirations: 1},
		},
		{
			name: "expired, inside the stale window",
			cfg:  Config{StaleWindow: time.Hour},
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl})
				clk.Advance(ttl + time.Hour) // the window's last instant
			},
			serve: Expired, stale: Found, validator: Absent, resident: 1,
			want: counts{misses: 1, stores: 1, expirations: 1},
		},
		{
			name: "expired, past the stale window",
			cfg:  Config{StaleWindow: time.Hour},
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl})
				clk.Advance(ttl + time.Hour + time.Second)
			},
			serve: Expired, stale: Absent, validator: Absent, resident: 0,
			want: counts{misses: 1, stores: 1, expirations: 1},
		},
		{
			name: "write-invalidated",
			// Every retention rule on: invalidation outranks them all.
			cfg: Config{RetainValidated: true, StaleWindow: time.Hour},
			run: func(e *Engine[string], _ *fakeClock, inv *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{
					Value: "v", Size: 1, TTL: ttl, LastModified: lastMod,
					Stamps: []invalidate.Stamp{inv.StampWith(ksDep, inv.Epoch(ksDep))},
				})
				inv.Bump(ksDep)
			},
			serve: Invalidated, stale: Absent, validator: Absent, resident: 0,
			want: counts{misses: 1, stores: 1, invalidations: 1},
		},
		{
			name: "stamped but not overtaken",
			run: func(e *Engine[string], _ *fakeClock, inv *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{
					Value: "v", Size: 1,
					Stamps: []invalidate.Stamp{inv.StampWith(ksDep, inv.Epoch(ksDep))},
				})
				inv.Bump(ksOther)
			},
			serve: Found, serveValue: "v",
			stale: Found, validator: Absent, resident: 1,
			want: counts{hits: 1, stores: 1},
		},
		{
			name: "evicted by the entry budget, least recently used first",
			cfg:  Config{MaxEntries: 2, Shards: 1},
			run: func(e *Engine[string], _ *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v0", Size: 1})
				e.Insert(key(1), Item[string]{Value: "v1", Size: 1})
				if _, st := e.Lookup(key(0), ServeStale); st != Found { // touch key 0: key 1 is now the LRU
					t.Errorf("touch: %v", st)
				}
				e.Insert(key(2), Item[string]{Value: "v2", Size: 1})
			},
			serve: Found, serveValue: "v0",
			stale: Found, validator: Absent, resident: 2,
			want: counts{hits: 1, stores: 3, evictions: 1},
		},
		{
			name: "evicted by the byte budget",
			cfg:  Config{MaxBytes: 10, Shards: 1},
			run: func(e *Engine[string], _ *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v0", Size: 4})
				e.Insert(key(1), Item[string]{Value: "v1", Size: 4})
				e.Insert(key(2), Item[string]{Value: "v2", Size: 7}) // 15 > 10: both older entries must go
			},
			serve: Absent, stale: Absent, validator: Absent, resident: 1,
			want: counts{misses: 1, stores: 3, evictions: 2},
		},
		{
			name: "an entry larger than the byte budget evicts itself",
			cfg:  Config{MaxBytes: 10, Shards: 1},
			run: func(e *Engine[string], _ *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v0", Size: 11})
			},
			serve: Absent, stale: Absent, validator: Absent, resident: 0,
			want: counts{misses: 1, stores: 1, evictions: 1},
		},
		{
			name: "replace under the same key",
			cfg:  Config{MaxBytes: 10, Shards: 1},
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "old", Size: 8, TTL: ttl})
				clk.Advance(ttl + time.Second)
				// The replacement is charged alone (8+8 would evict), and
				// carries its own lifetime.
				e.Insert(key(0), Item[string]{Value: "new", Size: 8, TTL: ttl})
			},
			serve: Found, serveValue: "new",
			stale: Found, validator: Absent, resident: 1,
			want: counts{hits: 1, stores: 2},
		},
		{
			name: "refreshed by the origin after expiry",
			cfg:  Config{RetainValidated: true},
			run: func(e *Engine[string], clk *fakeClock, _ *invalidate.Invalidator) {
				e.Insert(key(0), Item[string]{Value: "v", Size: 1, TTL: ttl, LastModified: lastMod})
				clk.Advance(ttl + time.Second)
				// A zero TTL re-arms the lifetime the entry was stored with.
				if h, st := e.Refresh(key(0), 0); st != Found || h.Value != "v" || h.Remaining != ttl {
					t.Errorf("Refresh = %+v, %v", h, st)
				}
				clk.Advance(ttl)
			},
			serve: Found, serveValue: "v",
			stale: Found, validator: Absent, resident: 1,
			want: counts{hits: 2, stores: 1}, // Refresh counts as a hit
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			inv := invalidate.New(nil, nil)
			m := counted()
			cfg := tc.cfg
			cfg.Clock = clk.Now
			e := New[string](cfg, m)
			tc.run(e, clk, inv)

			h, st := e.Lookup(key(0), Serve)
			if st != tc.serve || h.Value != tc.serveValue {
				t.Errorf("Serve = %q, %v; want %q, %v", h.Value, st, tc.serveValue, tc.serve)
			}
			got := counts{m.Hits.Load(), m.Misses.Load(), m.Stores.Load(), m.Expirations.Load(), m.Evictions.Load(), m.Invalidations.Load()}
			if got != tc.want {
				t.Errorf("counters = %+v, want %+v", got, tc.want)
			}
			if _, st := e.Lookup(key(0), ServeStale); st != tc.stale {
				t.Errorf("ServeStale = %v, want %v", st, tc.stale)
			}
			if h, st := e.Lookup(key(0), Validator); st != tc.validator || (st == Found && !h.LastModified.Equal(lastMod)) {
				t.Errorf("Validator = %v (%v), want %v", st, h.LastModified, tc.validator)
			}
			if e.Len() != tc.resident {
				t.Errorf("Len = %d, want %d", e.Len(), tc.resident)
			}
			// The degraded modes count neither hits nor misses.
			if m.Hits.Load() != tc.want.hits || m.Misses.Load() != tc.want.misses {
				t.Errorf("ServeStale/Validator moved hits/misses to %d/%d", m.Hits.Load(), m.Misses.Load())
			}
		})
	}
}

// TestDegradedModesRefuseInvalidated: stale serving, revalidation and
// refresh all drop a write-invalidated entry rather than return it.
func TestDegradedModesRefuseInvalidated(t *testing.T) {
	lookups := map[string]func(*Engine[string]) Status{
		"ServeStale": func(e *Engine[string]) Status { _, st := e.Lookup(key(0), ServeStale); return st },
		"Validator":  func(e *Engine[string]) Status { _, st := e.Lookup(key(0), Validator); return st },
		"Refresh":    func(e *Engine[string]) Status { _, st := e.Refresh(key(0), time.Hour); return st },
	}
	for name, lookup := range lookups {
		clk := newFakeClock()
		inv := invalidate.New(nil, nil)
		m := counted()
		e := New[string](Config{Clock: clk.Now, RetainValidated: true, StaleWindow: time.Hour}, m)
		e.Insert(key(0), Item[string]{
			Value: "v", Size: 1, TTL: time.Minute, LastModified: time.Unix(500, 0),
			Stamps: []invalidate.Stamp{inv.StampWith(ksDep, inv.Epoch(ksDep))},
		})
		clk.Advance(2 * time.Minute)
		inv.Bump(ksDep)
		if st := lookup(e); st != Invalidated {
			t.Errorf("%s = %v, want Invalidated", name, st)
		}
		if e.Len() != 0 || m.Invalidations.Load() != 1 {
			t.Errorf("%s: Len = %d, invalidations = %d; want the entry dropped and counted once", name, e.Len(), m.Invalidations.Load())
		}
	}
}

// TestUnhit: a hit the front end could not materialize is re-booked as
// a miss and the entry dropped — unless the key has been refilled in
// the meantime, in which case the newer entry stays.
func TestUnhit(t *testing.T) {
	m := counted()
	e := New[string](Config{}, m)
	e.Insert(key(0), Item[string]{Value: "broken", Size: 1})
	h, st := e.Lookup(key(0), Serve)
	if st != Found {
		t.Fatal(st)
	}
	e.Unhit(key(0), h)
	if e.Len() != 0 || m.Hits.Load() != 0 || m.Misses.Load() != 1 {
		t.Errorf("after Unhit: Len = %d, hits = %d, misses = %d; want 0, 0, 1", e.Len(), m.Hits.Load(), m.Misses.Load())
	}

	e.Insert(key(0), Item[string]{Value: "broken", Size: 1})
	h, _ = e.Lookup(key(0), Serve)
	e.Insert(key(0), Item[string]{Value: "refilled", Size: 1})
	e.Unhit(key(0), h)
	if got, st := e.Lookup(key(0), Serve); st != Found || got.Value != "refilled" {
		t.Errorf("Unhit of a replaced entry removed its replacement: %q, %v", got.Value, st)
	}
}

func TestSweep(t *testing.T) {
	clk := newFakeClock()
	inv := invalidate.New(nil, nil)
	m := counted()
	e := New[string](Config{Clock: clk.Now, RetainValidated: true, StaleWindow: time.Hour}, m)
	stamp := func() []invalidate.Stamp {
		return []invalidate.Stamp{inv.StampWith(ksDep, inv.Epoch(ksDep))}
	}
	e.Insert(key(0), Item[string]{Value: "fresh", Size: 1, TTL: 10 * time.Hour})
	e.Insert(key(1), Item[string]{Value: "in window", Size: 1, TTL: 30 * time.Minute})
	e.Insert(key(2), Item[string]{Value: "past window, validator", Size: 1, TTL: time.Minute, LastModified: time.Unix(500, 0)})
	e.Insert(key(3), Item[string]{Value: "fresh but invalidated", Size: 1, TTL: 10 * time.Hour, Stamps: stamp()})
	e.Insert(key(4), Item[string]{Value: "forever", Size: 1})
	if n := e.Sweep(); n != 0 {
		t.Fatalf("sweep of a fresh engine removed %d", n)
	}

	clk.Advance(90 * time.Minute) // key 1: expired 60m ago, inside the window; key 2: 89m ago, past it
	inv.Bump(ksDep)
	if n := e.Sweep(); n != 2 {
		t.Errorf("sweep removed %d, want 2 (past-window despite its validator, and invalidated despite being fresh)", n)
	}
	if m.Expirations.Load() != 1 || m.Invalidations.Load() != 1 {
		t.Errorf("expirations = %d, invalidations = %d; want 1 and 1", m.Expirations.Load(), m.Invalidations.Load())
	}
	for i, want := range []Status{Found, Found, Absent, Absent, Found} {
		if _, st := e.Lookup(key(i), ServeStale); st != want {
			t.Errorf("key %d after sweep: %v, want %v", i, st, want)
		}
	}
	if e.Len() != 3 || e.Bytes() != 3 {
		t.Errorf("Len = %d, Bytes = %d; want 3 and 3", e.Len(), e.Bytes())
	}
	e.Clear()
	if e.Len() != 0 || e.Bytes() != 0 {
		t.Error("Clear left residue")
	}
}

func TestDigest(t *testing.T) {
	e := New[string](Config{}, Counters{})
	a, b := e.Digest([]byte("request-a")), e.Digest([]byte("request-b"))
	if a == b || a.Hi == a.Lo {
		t.Errorf("digests %v and %v: want distinct keys with independently seeded halves", a, b)
	}
	if other := New[string](Config{}, Counters{}).Digest([]byte("request-a")); other == a {
		t.Error("two engines share digest seeds")
	}
}

func TestShardCountRounding(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{Shards: 1}, 1},
		{Config{Shards: 2}, 2},
		{Config{Shards: 3}, 4},
		{Config{Shards: 64}, 64},
		{Config{Shards: 65}, 128},
		// A bounded engine never gets more shards than entry budget:
		// every shard's slice must hold at least one entry.
		{Config{Shards: 64, MaxEntries: 2}, 2},
		{Config{Shards: 64, MaxEntries: 3}, 2},
		{Config{Shards: 64, MaxEntries: 100}, 64},
		{Config{Shards: 64, MaxBytes: 16}, 16},
	}
	for _, tc := range cases {
		if got := shardCount(tc.cfg); got != tc.want {
			t.Errorf("shardCount(Shards=%d MaxEntries=%d MaxBytes=%d) = %d, want %d",
				tc.cfg.Shards, tc.cfg.MaxEntries, tc.cfg.MaxBytes, got, tc.want)
		}
	}
	// The default is a power of two between 1 and 64.
	n := shardCount(Config{})
	if n < 1 || n > 64 || n&(n-1) != 0 {
		t.Errorf("default shard count %d not a power of two in [1,64]", n)
	}
	e := New[string](Config{Shards: 5, MaxBytes: 80}, Counters{})
	if e.Shards() != 8 || e.ShardBytes() != 10 {
		t.Errorf("Shards() = %d, ShardBytes() = %d; want 8 and 10", e.Shards(), e.ShardBytes())
	}
	if New[string](Config{}, Counters{}).ShardBytes() != -1 {
		t.Error("an unbounded engine must report ShardBytes -1")
	}
}

func TestSliceBudgetSumsExactly(t *testing.T) {
	for _, tc := range []struct{ total, n int }{
		{10, 4}, {4096, 32}, {7, 8}, {1, 1}, {64, 64},
	} {
		sum := 0
		for i := 0; i < tc.n; i++ {
			b := sliceBudget(tc.total, tc.n, i)
			if b < 0 {
				t.Fatalf("sliceBudget(%d,%d,%d) = %d, want bounded", tc.total, tc.n, i, b)
			}
			sum += b
		}
		if sum != tc.total {
			t.Errorf("slices of %d across %d shards sum to %d", tc.total, tc.n, sum)
		}
	}
	if sliceBudget(0, 8, 3) != -1 {
		t.Error("unbounded budget must slice to -1")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{MaxEntries: 1, MaxBytes: 1, Shards: 1, StaleWindow: time.Second}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, cfg := range []Config{{MaxEntries: -1}, {MaxBytes: -1}, {Shards: -1}, {StaleWindow: -1}} {
		if cfg.Validate() == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// TestSnapshotsDoNotBlockOnShardLocks holds every shard's structural
// lock — the state a fill or hit holds mid-operation — and requires Len
// and Bytes to complete anyway: snapshots read the per-shard atomics,
// never the locks, so /debug/wscache cannot stall the hit path (or be
// stalled by it).
func TestSnapshotsDoNotBlockOnShardLocks(t *testing.T) {
	e := New[string](Config{MaxEntries: 16}, Counters{})
	e.Insert(key(0), Item[string]{Value: "warm", Size: 7})
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	done := make(chan [2]int, 1)
	go func() { done <- [2]int{e.Len(), e.Bytes()} }()
	select {
	case got := <-done:
		if got != [2]int{1, 7} {
			t.Errorf("Len, Bytes under held locks = %v, want [1 7]", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Len/Bytes blocked on a shard lock")
	}
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
}

// TestCoalescing: one leader per key; followers wait for Land and read
// the leader's outcome; a different key flies independently.
func TestCoalescing(t *testing.T) {
	e := New[string](Config{}, Counters{})
	f, leader := e.Join(key(0))
	if !leader {
		t.Fatal("first Join is not the leader")
	}
	if _, leader := e.Join(key(1)); !leader {
		t.Error("a different key joined key 0's flight")
	}

	const followers = 4
	var wg sync.WaitGroup
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		ff, leader := e.Join(key(0))
		if leader || ff != f {
			t.Fatal("follower did not join the leader's flight")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ff.Wait(context.Background()); err != nil {
				errs <- err
				return
			}
			errs <- ff.Err
		}()
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Wait(cancelled); err != context.Canceled {
		t.Errorf("Wait under a cancelled context = %v", err)
	}

	f.Err = fmt.Errorf("backend down")
	e.Land(key(0), f)
	wg.Wait()
	for i := 0; i < followers; i++ {
		if err := <-errs; err != f.Err {
			t.Errorf("follower saw %v, want the leader's error", err)
		}
	}
	if err := f.Wait(nil); err != nil {
		t.Errorf("Wait(nil) after landing = %v", err)
	}
	if _, leader := e.Join(key(0)); !leader {
		t.Error("landed flight still in the map: the next miss did not become leader")
	}
}

// TestCoalescingPanickingLeader: a leader that dies still releases its
// followers (Land runs deferred), and they see no error — their cue to
// look for an entry and, finding none, invoke for themselves.
func TestCoalescingPanickingLeader(t *testing.T) {
	e := New[string](Config{}, Counters{})
	f, _ := e.Join(key(0))
	follower, _ := e.Join(key(0))
	released := make(chan error, 1)
	go func() { released <- follower.Wait(context.Background()) }()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic was swallowed")
			}
		}()
		defer e.Land(key(0), f)
		panic("store blew up")
	}()

	select {
	case err := <-released:
		if err != nil || follower.Err != nil {
			t.Errorf("follower of a panicked leader: Wait = %v, Err = %v; want nil, nil", err, follower.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower stranded by a panicking leader")
	}
}

// TestConcurrentStress is the -race storm: concurrent inserts, every
// lookup mode, refreshes, unhits, deletes, coalesced fills, sweeps,
// Clear and snapshots against one bounded engine, with per-key values
// so a misroute or lost update surfaces as a wrong value.
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		iters      = 2000
		keys       = 96
		maxEntries = 64
	)
	inv := invalidate.New(nil, nil)
	m := counted()
	e := New[int](Config{MaxEntries: maxEntries, MaxBytes: maxEntries * 8, RetainValidated: true, StaleWindow: time.Millisecond}, m)
	keyOf := func(i int) Key { return e.Digest([]byte(fmt.Sprintf("stress key %d", i))) }

	var wg sync.WaitGroup
	var fills atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (g*17 + i) % keys
				k := keyOf(n)
				h, st := e.Lookup(k, Serve)
				if st == Found && h.Value != n {
					t.Errorf("key %d served value %d", n, h.Value)
					return
				}
				switch {
				case st == Found && i%31 == 0:
					e.Unhit(k, h)
				case st != Found:
					f, leader := e.Join(k)
					if !leader {
						_ = f.Wait(context.Background())
						continue
					}
					fills.Add(1)
					e.Insert(k, Item[int]{
						Value: n, Size: 1 + n%8, TTL: time.Duration(1+n%3) * time.Millisecond,
						LastModified: time.Unix(int64(n), 0),
						Stamps:       []invalidate.Stamp{inv.StampWith(ksDep, inv.Epoch(ksDep))},
					})
					e.Land(k, f)
				}
				switch i % 97 {
				case 0:
					e.Sweep()
				case 1:
					if h, st := e.Lookup(k, ServeStale); st == Found && h.Value != n {
						t.Errorf("key %d stale-served value %d", n, h.Value)
					}
				case 2:
					e.Lookup(k, Validator)
				case 3:
					e.Refresh(k, time.Millisecond)
				case 4:
					e.Delete(k)
				case 5:
					if g == 0 {
						inv.Bump(ksDep)
					}
				case 6:
					if g == 1 {
						e.Clear()
					}
				case 7:
					if e.Len() < 0 || e.Bytes() < 0 {
						t.Errorf("negative snapshot: Len %d, Bytes %d", e.Len(), e.Bytes())
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := e.Len(); n > maxEntries {
		t.Errorf("Len = %d exceeds MaxEntries %d", n, maxEntries)
	}
	if b := e.Bytes(); b < 0 || b > maxEntries*8 {
		t.Errorf("Bytes = %d outside [0, %d]", b, maxEntries*8)
	}
	if m.Stores.Load() != fills.Load() {
		t.Errorf("stores counter %d, fills %d", m.Stores.Load(), fills.Load())
	}
	e.Clear()
	if e.Len() != 0 || e.Bytes() != 0 {
		t.Error("Clear left residue")
	}
}

// TestTier drives the daemon side of the tier protocol: verbatim
// round trip with the remaining lifetime, born-stale refusal,
// invalidation by a pushed bump, and the counters behind TierStats.
func TestTier(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	inv := invalidate.New(nil, reg)
	tr := NewTier(Config{Clock: clk.Now}, inv, reg)
	ctx := context.Background()
	k := tier.KeyOf([]byte("request"))

	if _, ok, err := tr.Get(ctx, k); ok || err != nil {
		t.Fatalf("Get on an empty tier = %v, %v", ok, err)
	}
	stamps := tr.PutStamps(k, []string{string(ksItem)})
	if len(stamps) != 1 || stamps[0].Keyspace != string(ksItem) || stamps[0].Epoch != inv.Epoch(ksItem) {
		t.Fatalf("PutStamps = %+v", stamps)
	}
	if err := tr.Put(ctx, k, tier.Entry{Rep: "raw", Value: []byte("bytes"), TTL: time.Minute, Stamps: stamps}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Second)
	got, ok, err := tr.Get(ctx, k)
	if err != nil || !ok || got.Rep != "raw" || string(got.Value) != "bytes" || got.TTL != 40*time.Second {
		t.Errorf("Get = %+v, %v, %v; want the bytes back with 40s left", got, ok, err)
	}

	// A pushed bump invalidates the resident entry and makes the old
	// snapshot born-stale for any fill still carrying it.
	if err := tr.BumpEpoch(ctx, []string{string(ksItem)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get(ctx, k); ok {
		t.Error("entry served after its keyspace was bumped")
	}
	if err := tr.Put(ctx, k, tier.Entry{Rep: "raw", Value: []byte("late"), Stamps: stamps}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get(ctx, k); ok {
		t.Error("born-stale fill was stored")
	}
	if reg.Counter("core.tier_put_refused").Load() != 1 {
		t.Error("refusal not counted")
	}

	if err := tr.Put(ctx, k, tier.Entry{Rep: "raw", Value: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	if st := tr.TierStats(); st.Entries != 1 || st.Bytes != len("v2")+len("raw") || st.Hits != 1 || st.Misses != 3 || st.Stores != 2 {
		t.Errorf("TierStats = %+v", st)
	}
	if err := tr.Delete(ctx, k); err != nil || tr.Len() != 0 {
		t.Errorf("Delete: err %v, Len %d", err, tr.Len())
	}

	if err := NewTier(Config{}, nil, reg).BumpEpoch(ctx, []string{"x"}); err == nil {
		t.Error("a tier without an invalidator accepted an epoch bump")
	}
}

// TestTierKeepsCoreSurface pins what a wscached shows its consumers,
// unchanged from when the daemon was a core.Cache: the "l1" label, the
// whole core.* counter family on the metrics page (client-side ones at
// zero), a swept table, and core.errors behind TierStats.Errors.
func TestTierKeepsCoreSurface(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	tr := NewTier(Config{Clock: clk.Now}, nil, reg)
	if tr.Name() != "l1" {
		t.Errorf("Name() = %q, want l1", tr.Name())
	}
	counters := reg.Snapshot().Counters
	for _, name := range []string{
		"core.hits", "core.misses", "core.stores", "core.expirations", "core.evictions",
		"core.revalidations", "core.stale_serves", "core.invalidations", "core.stale_refused",
		"core.coalesced", "core.errors", "core.bypass", "core.tier_hits", "core.tier_errors",
		"core.tier_put_refused",
	} {
		if _, ok := counters[name]; !ok {
			t.Errorf("counter %s is not registered", name)
		}
	}
	reg.Counter("core.errors").Add(3)
	if got := tr.TierStats().Errors; got != 3 {
		t.Errorf("TierStats().Errors = %d, want 3", got)
	}

	ctx := context.Background()
	for _, key := range []string{"a", "b"} {
		if err := tr.Put(ctx, tier.KeyOf([]byte(key)), tier.Entry{Rep: "raw", Value: []byte(key), TTL: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Minute)
	if n := tr.SweepExpired(); n != 2 || tr.Len() != 0 {
		t.Errorf("SweepExpired = %d, Len = %d; want 2 reclaimed and an empty table", n, tr.Len())
	}
	_ = tr.Put(ctx, tier.KeyOf([]byte("c")), tier.Entry{Rep: "raw", Value: []byte("c")})
	tr.Clear()
	if st := tr.TierStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("Clear left %+v", st)
	}
}
