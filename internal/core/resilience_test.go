package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/soap"
)

// clockFixture is a mutex-guarded fake clock shared by cache and test.
type clockFixture struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clockFixture { return &clockFixture{now: time.Unix(1000, 0)} }

func (c *clockFixture) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clockFixture) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// failingNext returns an Invoker that always fails with err.
func failingNext(err error) client.Invoker {
	return func(*client.Context) error { return err }
}

func TestStaleOnErrorServesExpiredEntry(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.StaleIfError = 5 * time.Minute
		cfg.Clock = clock.Now
	})
	next, calls := countingNext(f, t, func() any { return &item{Name: "cached", Score: 7} })

	// Fill, then expire past the TTL but stay inside the grace window.
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), next); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Minute)

	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	boom := errors.New("backend unreachable")
	if err := c.HandleInvoke(ictx, failingNext(boom)); err != nil {
		t.Fatalf("HandleInvoke = %v, want degraded success", err)
	}
	if !ictx.CacheHit || !ictx.ServedStale {
		t.Errorf("CacheHit=%v ServedStale=%v, want both true", ictx.CacheHit, ictx.ServedStale)
	}
	if got := ictx.Result.(*item); got.Name != "cached" {
		t.Errorf("result = %+v", got)
	}
	if s := c.Stats(); s.StaleServes != 1 {
		t.Errorf("StaleServes = %d, want 1", s.StaleServes)
	}
	if calls.Load() != 1 {
		t.Errorf("backend calls = %d", calls.Load())
	}

	// Once the backend answers again, the entry is refilled and served
	// fresh, not stale.
	ictx = f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if ictx.ServedStale {
		t.Error("recovered invocation flagged stale")
	}
}

func TestStaleOnErrorWindowExpires(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.StaleIfError = 2 * time.Minute
		cfg.Clock = clock.Now
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "cached"} })
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), next); err != nil {
		t.Fatal(err)
	}

	// Past TTL + grace: the error must surface.
	clock.Advance(10 * time.Minute)
	boom := errors.New("backend unreachable")
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, failingNext(boom)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ictx.ServedStale {
		t.Error("ServedStale set outside the grace window")
	}
}

func TestStaleOnErrorDoesNotMaskFaults(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.StaleIfError = time.Hour
		cfg.Clock = clock.Now
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "cached"} })
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), next); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)

	// A SOAP fault is an application answer: it must propagate even
	// though a stale entry is available.
	fault := &soap.Fault{Code: "soapenv:Server", String: "no such symbol"}
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	err := c.HandleInvoke(ictx, failingNext(fault))
	var got *soap.Fault
	if !errors.As(err, &got) {
		t.Fatalf("err = %v, want fault", err)
	}
	if ictx.ServedStale {
		t.Error("fault masked by stale entry")
	}
	if s := c.Stats(); s.StaleServes != 0 {
		t.Errorf("StaleServes = %d", s.StaleServes)
	}
}

func TestStaleOnErrorDisabledByDefault(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.Clock = clock.Now
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "cached"} })
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), next); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	boom := errors.New("down")
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), failingNext(boom)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v (StaleIfError off)", err, boom)
	}
}

func TestErrorPropagationThroughCacheHandler(t *testing.T) {
	// Fault envelopes and HTTP status errors must pass through the
	// cache handler untouched, and must not create cache entries.
	f := newFixture(t)
	c := newCache(t, f, nil)

	fault := &soap.Fault{Code: "soapenv:Server", String: "boom"}
	err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "a"}), failingNext(fault))
	var gotFault *soap.Fault
	if !errors.As(err, &gotFault) || gotFault.String != "boom" {
		t.Fatalf("err = %v, want fault", err)
	}

	statusErr := errors.New("transport: http status 503: unavailable")
	err = c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "b"}), failingNext(statusErr))
	if !errors.Is(err, statusErr) {
		t.Fatalf("err = %v, want the status error", err)
	}

	if c.Stats().Entries != 0 {
		t.Errorf("failed invocations created %d cache entries", c.Stats().Entries)
	}
	if s := c.Stats(); s.Stores != 0 {
		t.Errorf("Stores = %d", s.Stores)
	}
}

func TestCoalesceConcurrentMissesSingleBackendCall(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) {
		cfg.Coalesce = true
		cfg.DefaultTTL = time.Hour
	})

	const users = 25 // the paper's Figure 4 concurrency level
	release := make(chan struct{})
	inner, calls := countingNext(f, t, func() any { return &item{Name: "one", Score: 1} })
	next := func(ictx *client.Context) error {
		<-release // hold the leader until every follower is queued
		return inner(ictx)
	}

	results := make([]*client.Context, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "hot"})
			errs[i] = c.HandleInvoke(ictx, next)
			results[i] = ictx
		}(i)
	}
	// Give every goroutine time to miss and join the flight, then let
	// the single leader proceed.
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("backend calls = %d, want exactly 1", n)
	}
	for i := 0; i < users; i++ {
		if errs[i] != nil {
			t.Fatalf("user %d: %v", i, errs[i])
		}
		if got := results[i].Result.(*item); got.Name != "one" {
			t.Errorf("user %d result = %+v", i, got)
		}
	}
	s := c.Stats()
	if s.Coalesced != users-1 {
		t.Errorf("Coalesced = %d, want %d", s.Coalesced, users-1)
	}
	if s.Stores != 1 {
		t.Errorf("Stores = %d, want 1", s.Stores)
	}
}

func TestCoalesceSharesLeaderError(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) { cfg.Coalesce = true })

	const users = 8
	release := make(chan struct{})
	boom := errors.New("backend unreachable")
	var calls int
	var callMu sync.Mutex
	next := func(*client.Context) error {
		callMu.Lock()
		calls++
		callMu.Unlock()
		<-release
		return boom
	}

	errs := make([]error, users)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "hot"}), next)
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	callMu.Lock()
	defer callMu.Unlock()
	if calls != 1 {
		t.Fatalf("backend calls = %d, want 1", calls)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("user %d err = %v, want shared leader error", i, err)
		}
	}
}

func TestCoalesceFollowerHonorsContextCancellation(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) { cfg.Coalesce = true })

	release := make(chan struct{})
	defer close(release)
	inner, _ := countingNext(f, t, func() any { return &item{Name: "slow"} })
	next := func(ictx *client.Context) error {
		<-release
		return inner(ictx)
	}

	leaderRunning := make(chan struct{})
	go func() {
		close(leaderRunning)
		_ = c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "hot"}), next)
	}()
	<-leaderRunning
	time.Sleep(50 * time.Millisecond) // let the leader register its flight

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "hot"})
	ictx.Ctx = ctx
	err := c.HandleInvoke(ictx, next)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded while waiting on flight", err)
	}
}

func TestCoalescedFollowersServeStaleOnLeaderError(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c := newCache(t, f, func(cfg *Config) {
		cfg.Coalesce = true
		cfg.DefaultTTL = time.Minute
		cfg.StaleIfError = time.Hour
		cfg.Clock = clock.Now
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "cached"} })
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), next); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)

	const users = 5
	release := make(chan struct{})
	boom := errors.New("down")
	failing := func(*client.Context) error {
		<-release
		return boom
	}
	results := make([]*client.Context, users)
	errs := make([]error, users)
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
			errs[i] = c.HandleInvoke(ictx, failing)
			results[i] = ictx
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < users; i++ {
		if errs[i] != nil {
			t.Errorf("user %d err = %v, want degraded success", i, errs[i])
			continue
		}
		if !results[i].ServedStale {
			t.Errorf("user %d not flagged stale", i)
		}
		if got := results[i].Result.(*item); got.Name != "cached" {
			t.Errorf("user %d result = %+v", i, got)
		}
	}
}

func TestSweepRespectsStaleWindow(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.StaleIfError = 5 * time.Minute
		cfg.Clock = clock.Now
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "x"} })
	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "a"}), next); err != nil {
		t.Fatal(err)
	}

	// Expired but inside the grace window: the sweeper must keep it —
	// it is the cache's only degraded-mode answer.
	clock.Advance(3 * time.Minute)
	if n := c.SweepExpired(); n != 0 {
		t.Errorf("sweep removed %d entries inside the stale window", n)
	}
	if c.Stats().Entries != 1 {
		t.Fatalf("len = %d", c.Stats().Entries)
	}

	// Past the window it is reclaimable.
	clock.Advance(10 * time.Minute)
	if n := c.SweepExpired(); n != 1 {
		t.Errorf("sweep removed %d, want 1", n)
	}
}

func TestSweeperContextCancellation(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSweeperContext(ctx, c, time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() {
		s.Shutdown() // must return promptly after cancellation, not hang
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown hung after context cancellation")
	}
	// Shutdown is idempotent.
	s.Shutdown()
}
