package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/invalidate"
	"repro/internal/soap"
)

// Operation and keyspace names shared by the core test suite. The
// values follow the WSDL do* convention, and the per-item keyspace
// prefix lives here once, so every spelling has one source of truth.
const (
	opGet = "doGet"
	opPut = "doPut"

	itemPrefix = "item:"
)

const (
	ksItems = invalidate.Keyspace("items")
	ksItemX = invalidate.Keyspace(itemPrefix + "x")
)

// testGraph declares opGet reading and opPut writing the per-item
// keyspace named by the q parameter.
func testGraph() *invalidate.Graph {
	item := invalidate.Param(itemPrefix, "q", -1)
	g := invalidate.NewGraph()
	g.Read(opGet, item)
	g.Write(opPut, item)
	return g
}

// newInvalCache builds a cache with the test graph installed and opGet
// cacheable, opPut an uncacheable write-through operation.
func newInvalCache(t *testing.T, f *fixture, mutate func(*Config)) (*Cache, *invalidate.Invalidator) {
	t.Helper()
	inv := invalidate.New(testGraph(), nil)
	c := newCache(t, f, func(cfg *Config) {
		cfg.Invalidator = inv
		cfg.Policy = Policy{
			Default:         OperationPolicy{Cacheable: false},
			DefaultExplicit: true,
			Operations:      map[string]OperationPolicy{opGet: {Cacheable: true}},
		}
		if mutate != nil {
			mutate(cfg)
		}
	})
	return c, inv
}

func TestWriteInvalidatesDependentEntry(t *testing.T) {
	f := newFixture(t)
	c, _ := newInvalCache(t, f, nil)
	next, calls := countingNext(f, t, func() any { return &item{Name: "v", Score: 1} })

	q := soap.Param{Name: "q", Value: "x"}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), next); err != nil {
		t.Fatal(err)
	}
	ictx := f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if !ictx.CacheHit {
		t.Fatal("second get not a hit")
	}

	// Write-through call on the same keyspace: flows through the bypass
	// path (put is uncacheable) and must bump the epoch.
	if err := c.HandleInvoke(f.reqCtx(opPut, q), next); err != nil {
		t.Fatal(err)
	}

	ictx = f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit {
		t.Error("get after put served from cache (stale-after-write)")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend calls = %d, want 3 (fill, put, refill)", got)
	}
	s := c.Stats()
	if s.Invalidations != 1 {
		t.Errorf("Stats.Invalidations = %d, want 1", s.Invalidations)
	}
	if s.Bypass != 1 {
		t.Errorf("Stats.Bypass = %d, want 1", s.Bypass)
	}

	// The refill is stamped with the post-write epoch and hits again.
	ictx = f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if !ictx.CacheHit {
		t.Error("get after refill not a hit")
	}
}

func TestWriteToOtherKeyspaceLeavesEntry(t *testing.T) {
	f := newFixture(t)
	c, _ := newInvalCache(t, f, nil)
	next, _ := countingNext(f, t, func() any { return &item{Name: "v", Score: 1} })

	if err := c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), next); err != nil {
		t.Fatal(err)
	}
	if err := c.HandleInvoke(f.reqCtx(opPut, soap.Param{Name: "q", Value: "other"}), next); err != nil {
		t.Fatal(err)
	}
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if !ictx.CacheHit {
		t.Error("write to an unrelated keyspace invalidated the entry")
	}
}

func TestWriteFaultDoesNotInvalidate(t *testing.T) {
	f := newFixture(t)
	c, inv := newInvalCache(t, f, nil)
	next, _ := countingNext(f, t, func() any { return &item{Name: "v", Score: 1} })

	q := soap.Param{Name: "q", Value: "x"}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), next); err != nil {
		t.Fatal(err)
	}

	// A SOAP fault proves the backend rejected the write: no bump.
	fault := &soap.Fault{Code: "soapenv:Server", String: "rejected"}
	if err := c.HandleInvoke(f.reqCtx(opPut, q), failingNext(fault)); err == nil {
		t.Fatal("faulting put reported success")
	}
	if got := inv.Epoch(ksItemX); got != 0 {
		t.Errorf("epoch after faulted write = %d, want 0", got)
	}
	ictx := f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if !ictx.CacheHit {
		t.Error("faulted write invalidated the entry")
	}

	// A transport-level error leaves the outcome unknown: the write may
	// have reached the backend, so it invalidates conservatively.
	if err := c.HandleInvoke(f.reqCtx(opPut, q), failingNext(errors.New("conn reset"))); err == nil {
		t.Fatal("failing put reported success")
	}
	if got := inv.Epoch(ksItemX); got != 1 {
		t.Errorf("epoch after unknown-outcome write = %d, want 1", got)
	}
	ictx = f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit {
		t.Error("unknown-outcome write did not invalidate the entry")
	}
}

func TestStaleOnErrorRefusesInvalidatedEntry(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c, inv := newInvalCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.StaleIfError = 10 * time.Minute
		cfg.Clock = clock.Now
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "old", Score: 1} })

	q := soap.Param{Name: "q", Value: "x"}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), next); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Minute) // expired, inside the grace window

	// Without a write, degraded serving works.
	boom := errors.New("backend down")
	ictx := f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, failingNext(boom)); err != nil || !ictx.ServedStale {
		t.Fatalf("pre-write degraded serve: err=%v stale=%v", err, ictx.ServedStale)
	}

	// A write invalidated via a committed put is dropped at lookup time
	// (the eager path), so the interesting case for staleOnError is the
	// racing one: the write lands while the backend call is already
	// failing. The retained stale entry passed lookup's epoch check, but
	// degraded serving must re-check and refuse it.
	ictx = f.reqCtx(opGet, q)
	err := c.HandleInvoke(ictx, func(*client.Context) error {
		inv.Bump(ksItemX) // concurrent write during the outage
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("post-write degraded serve: err=%v, want %v", err, boom)
	}
	if ictx.ServedStale {
		t.Error("write-invalidated entry served stale")
	}
	s := c.Stats()
	if s.StaleRefused != 1 {
		t.Errorf("Stats.StaleRefused = %d, want 1", s.StaleRefused)
	}

	// And the eager path: a committed write followed by a failed read
	// surfaces the error too (the entry was dropped at lookup).
	if err := c.HandleInvoke(f.reqCtx(opGet, q), next); err != nil { // refill
		t.Fatal(err)
	}
	clock.Advance(3 * time.Minute)
	if err := c.HandleInvoke(f.reqCtx(opPut, q), next); err != nil {
		t.Fatal(err)
	}
	ictx = f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, failingNext(boom)); !errors.Is(err, boom) || ictx.ServedStale {
		t.Errorf("eager-drop degraded serve: err=%v stale=%v, want %v/false", err, ictx.ServedStale, boom)
	}
}

// validatorNext fabricates a backend with HTTP validators: full
// responses carry Last-Modified, and conditional requests are answered
// 304 (optionally committing a write first, to race the revalidation).
type validatorNext struct {
	f         *fixture
	t         *testing.T
	lastMod   time.Time
	onCond    func() // runs when a conditional request arrives
	full      atomic.Int64
	notMod    atomic.Int64
	answer304 bool
}

func (v *validatorNext) invoke(ictx *client.Context) error {
	if ictx.RequestHeader.Get("If-Modified-Since") != "" && v.answer304 {
		if v.onCond != nil {
			v.onCond()
		}
		v.notMod.Add(1)
		ictx.NotModified = true
		ictx.ResponseHeader = http.Header{}
		return nil
	}
	v.full.Add(1)
	full := v.f.ictx(v.t, ictx.Operation, &item{Name: fmt.Sprintf("v%d", v.full.Load()), Score: 1}, ictx.Params...)
	ictx.NotModified = false
	ictx.Result = full.Result
	ictx.ResponseXML = full.ResponseXML
	ictx.ResponseEvents = full.ResponseEvents
	ictx.ResponseHeader = http.Header{}
	ictx.ResponseHeader.Set("Last-Modified", v.lastMod.UTC().Format(http.TimeFormat))
	return nil
}

func TestRevalidationRefusesInvalidatedEntry(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c, _ := newInvalCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.Revalidate = true
		cfg.Clock = clock.Now
	})
	backend := &validatorNext{f: f, t: t, lastMod: time.Unix(500, 0), answer304: true}
	writeNext, _ := countingNext(f, t, func() any { return &item{Name: "w", Score: 1} })

	q := soap.Param{Name: "q", Value: "x"}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), backend.invoke); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute) // stale, validator retained

	// A write invalidates the stale entry. The next get must NOT send a
	// conditional request (the server would answer 304 and resurrect
	// pre-write data); it must refetch unconditionally.
	if err := c.HandleInvoke(f.reqCtx(opPut, q), writeNext); err != nil {
		t.Fatal(err)
	}
	ictx := f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, backend.invoke); err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit {
		t.Error("invalidated stale entry served via revalidation")
	}
	if got := backend.notMod.Load(); got != 0 {
		t.Errorf("conditional requests = %d, want 0 (validator refused for invalidated entry)", got)
	}
	if got := backend.full.Load(); got != 2 {
		t.Errorf("full responses = %d, want 2", got)
	}
}

func TestRevalidation304RaceFallsBackToRefetch(t *testing.T) {
	f := newFixture(t)
	clock := newClock()
	c, inv := newInvalCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Minute
		cfg.Revalidate = true
		cfg.Clock = clock.Now
	})
	backend := &validatorNext{f: f, t: t, lastMod: time.Unix(500, 0), answer304: true}
	// The write lands while the conditional request is in flight: the
	// entry passed the Validator lookup, the server answers 304, and
	// refreshStale must notice the bump and force an unconditional
	// refetch instead of refreshing pre-write data.
	backend.onCond = func() {
		inv.Bump(ksItemX)
		backend.answer304 = false // the refetch gets a full response
	}

	q := soap.Param{Name: "q", Value: "x"}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), backend.invoke); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)

	ictx := f.reqCtx(opGet, q)
	if err := c.HandleInvoke(ictx, backend.invoke); err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit {
		t.Error("raced 304 served the invalidated entry")
	}
	if got, ok := ictx.Result.(*item); !ok || got.Name != "v2" {
		t.Errorf("result = %#v, want the refetched v2", ictx.Result)
	}
	if got := backend.notMod.Load(); got != 1 {
		t.Errorf("conditional requests = %d, want 1", got)
	}
	if got := backend.full.Load(); got != 2 {
		t.Errorf("full responses = %d, want 2 (fill + forced refetch)", got)
	}
	if got := c.Stats().StaleRefused; got != 1 {
		t.Errorf("Stats.StaleRefused = %d, want 1", got)
	}
}

func TestSweepReclaimsInvalidatedEntries(t *testing.T) {
	f := newFixture(t)
	c, inv := newInvalCache(t, f, func(cfg *Config) {
		cfg.StaleIfError = time.Hour // even the grace window must not retain them
	})
	next, _ := countingNext(f, t, func() any { return &item{Name: "v", Score: 1} })

	for i := 0; i < 8; i++ {
		q := soap.Param{Name: "q", Value: fmt.Sprintf("k%d", i)}
		if err := c.HandleInvoke(f.reqCtx(opGet, q), next); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		inv.Bump(invalidate.Keyspace(fmt.Sprintf("item:k%d", i)))
	}
	if removed := c.SweepExpired(); removed != 4 {
		t.Errorf("SweepExpired removed %d, want 4", removed)
	}
	if got := c.Stats().Entries; got != 4 {
		t.Errorf("Len after sweep = %d, want 4", got)
	}
	if got := c.Stats().Invalidations; got != 4 {
		t.Errorf("Stats.Invalidations = %d, want 4", got)
	}
}

// TestInvalidationConcurrentStress interleaves writes (epoch bumps),
// reads, sweeps, and Clear across shards under the race detector and
// checks the stale-after-write invariant with a per-key floor oracle:
// once a write of value v to key k has returned, every later read of k
// must observe at least v.
func TestInvalidationConcurrentStress(t *testing.T) {
	f := newFixture(t)
	c, _ := newInvalCache(t, f, func(cfg *Config) {
		cfg.Shards = 8
		cfg.MaxEntries = 64
		cfg.StaleIfError = time.Hour
	})

	const keys = 8
	var backendVals [keys]atomic.Int64 // the backend's current value per key
	var committed [keys]atomic.Int64   // floor: highest value whose write has returned
	var writeMu [keys]sync.Mutex       // serializes writers per key so values stay monotone

	readNext := func(ictx *client.Context) error {
		var k int
		fmt.Sscanf(ictx.Params[0].Value.(string), "k%d", &k)
		full := f.ictx(t, ictx.Operation, &item{Score: float64(backendVals[k].Load())}, ictx.Params...)
		ictx.Result = full.Result
		ictx.ResponseXML = full.ResponseXML
		ictx.ResponseEvents = full.ResponseEvents
		return nil
	}
	writeNext := func(ictx *client.Context) error {
		var k int
		fmt.Sscanf(ictx.Params[0].Value.(string), "k%d", &k)
		backendVals[k].Add(1)
		full := f.ictx(t, ictx.Operation, &item{Name: "ok"}, ictx.Params...)
		ictx.Result = full.Result
		ictx.ResponseXML = full.ResponseXML
		ictx.ResponseEvents = full.ResponseEvents
		return nil
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int64

	for w := 0; w < 4; w++ { // writers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (w + i) % keys
				writeMu[k].Lock()
				err := c.HandleInvoke(f.reqCtx(opPut, soap.Param{Name: "q", Value: fmt.Sprintf("k%d", k)}), writeNext)
				if err == nil {
					// HandleInvoke bumped the epoch before returning, so
					// advancing the floor here is safe: any read starting
					// now sees the bump.
					committed[k].Store(backendVals[k].Load())
				}
				writeMu[k].Unlock()
			}
		}(w)
	}
	for r := 0; r < 8; r++ { // readers
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (r + i) % keys
				floor := committed[k].Load()
				ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: fmt.Sprintf("k%d", k)})
				if err := c.HandleInvoke(ictx, readNext); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if got := int64(ictx.Result.(*item).Score); got < floor {
					violations.Add(1)
					t.Errorf("stale-after-write: key k%d read %d, floor %d", k, got, floor)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // sweeper + Clear churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.SweepExpired()
			if i%7 == 0 {
				c.Clear()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if violations.Load() != 0 {
		t.Fatalf("%d stale-after-write violations", violations.Load())
	}

	// A deterministic tail proves the epoch path was exercised at least
	// once regardless of how the stress goroutines interleaved: fill,
	// invalidate via a committed write, and look up again.
	q := soap.Param{Name: "q", Value: "k0"}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), readNext); err != nil {
		t.Fatal(err)
	}
	if err := c.HandleInvoke(f.reqCtx(opPut, q), writeNext); err != nil {
		t.Fatal(err)
	}
	if err := c.HandleInvoke(f.reqCtx(opGet, q), readNext); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Invalidations; got == 0 {
		t.Error("run recorded no invalidations; the epoch path was not exercised")
	}
}

// TestCoalesceFollowerDeadlineBound: a follower whose context carries a
// deadline must abandon a hung leader when the deadline passes instead
// of waiting for the fill indefinitely.
func TestCoalesceFollowerDeadlineBound(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) { cfg.Coalesce = true })

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderNext := func(ictx *client.Context) error {
		close(entered)
		<-release // the filler is stuck (hung backend, lost goroutine…)
		return errors.New("eventually failed")
	}

	go func() {
		_ = c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), leaderNext)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	ictx.Ctx = ctx
	start := time.Now()
	err := c.HandleInvoke(ictx, failingNext(errors.New("follower must not invoke")))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("follower err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("follower waited %v past its deadline", waited)
	}
	close(release)
}

// TestCoalesceLeaderPanicDoesNotStrandFollowers: a leader that panics
// mid-fill must still retire the flight so followers wake up and serve
// themselves.
func TestCoalesceLeaderPanicDoesNotStrandFollowers(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) { cfg.Coalesce = true })

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDied := make(chan any, 1)
	go func() {
		defer func() { leaderDied <- recover() }()
		_ = c.HandleInvoke(f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"}), func(*client.Context) error {
			close(entered)
			<-release
			panic("filler died")
		})
	}()
	<-entered

	next, _ := countingNext(f, t, func() any { return &item{Name: "self", Score: 1} })
	followerDone := make(chan error, 1)
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	go func() { followerDone <- c.HandleInvoke(ictx, next) }()

	// Let the follower reach the flight wait, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if got := <-leaderDied; got == nil {
		t.Fatal("leader did not panic; the test exercised nothing")
	}
	select {
	case err := <-followerDone:
		if err != nil {
			t.Errorf("follower err = %v, want self-served success", err)
		}
		if got, ok := ictx.Result.(*item); !ok || got.Name != "self" {
			t.Errorf("follower result = %#v, want self-filled item", ictx.Result)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower stranded by panicking leader")
	}
}
