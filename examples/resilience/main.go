// Resilience: the degraded-mode machinery working end to end against a
// fault-injected backend. A flaky transport is absorbed by retries; a
// dead backend trips the per-endpoint circuit breaker and the cache
// degrades to serving stale entries within the StaleIfError window; a
// half-open probe closes the breaker once the backend recovers; and a
// thundering herd of concurrent misses is coalesced into one backend
// call.
//
//	go run ./examples/resilience
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultify"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dispatcher, codec, err := googleapi.NewDispatcher()
	if err != nil {
		return err
	}

	// The backend sits behind a fault injector: a little latency on
	// every call (so concurrent misses overlap) and a script we flip
	// between healthy, flaky, and dead.
	ft := faultify.New(&transport.InProcess{Handler: dispatcher}, faultify.Config{
		Latency: 20 * time.Millisecond,
		Seed:    42,
	})

	// A controllable clock stands in for waiting out TTLs and breaker
	// open intervals.
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	// One registry takes both the cache's and the breaker's metrics, as
	// /debug/wscache would serve them.
	reg := obs.NewRegistry()
	cache := core.MustNew(core.Config{
		KeyGen:       rep.NewStringKey(),
		Rep:          rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:   time.Minute,
		StaleIfError: time.Hour, // degraded window: expired entries still usable
		Coalesce:     true,      // concurrent misses share one backend call
		Clock:        clock,
		Obs:          reg,
	})
	breaker := client.NewBreaker(client.BreakerConfig{
		Window:           5,
		MinSamples:       3,
		FailureThreshold: 0.5,
		OpenFor:          10 * time.Second,
		Clock:            clock,
		Obs:              reg,
	})

	call := client.NewCall(codec, ft,
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch,
		"urn:GoogleSearchAction",
		client.Options{
			Handlers: []client.Handler{cache},
			Breaker:  breaker,
			Retry: &transport.RetryPolicy{
				MaxAttempts: 2,
				BaseDelay:   time.Millisecond,
			},
		})

	invoke := func(step, query string) {
		params := googleapi.SearchParams("demo", query, 0, 10, false, "", false, "")
		ictx, err := call.InvokeContext(context.Background(), params...)
		switch {
		case err != nil:
			fmt.Printf("%-34s error: %v\n", step, short(err))
		default:
			fmt.Printf("%-34s hit=%-5v stale=%-5v breaker=%v\n",
				step, ictx.CacheHit, ictx.ServedStale, breaker.State(googleapi.Endpoint))
		}
	}

	fmt.Println("--- act 1: retries absorb a flaky backend ---")
	ft.SetScript([]faultify.Outcome{faultify.Fail}) // first attempt fails, retry passes
	invoke("1. flaky miss (1 fail, retried)", "resilient")
	s := ft.Stats()
	fmt.Printf("   transport: %d sends, %d injected failures\n", s.Calls, s.Failures)

	fmt.Println("\n--- act 2: dead backend, breaker trips, cache degrades ---")
	advance(2 * time.Minute) // the cached entry expires (TTL 1m)
	ft.SetScript(faultify.FailN(1000))
	for i := 3; i > 0; i-- {
		invoke(fmt.Sprintf("2. dead backend -> stale (%d)", 4-i), "resilient")
	}
	before := ft.Stats().Calls
	invoke("3. breaker open, no transport", "resilient")
	fmt.Printf("   transport sends while open: %d (breaker short-circuits)\n", ft.Stats().Calls-before)

	fmt.Println("\n--- act 3: recovery through a half-open probe ---")
	ft.SetScript(nil) // the backend comes back
	advance(11 * time.Second)
	invoke("4. half-open probe succeeds", "resilient")
	invoke("5. fresh hit after recovery", "resilient")

	fmt.Println("\n--- act 4: coalescing a thundering herd ---")
	baseCalls := ft.Stats().Calls
	var wg sync.WaitGroup
	params := googleapi.SearchParams("demo", "thundering herd", 0, 10, false, "", false, "")
	for i := 0; i < 25; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := call.Invoke(context.Background(), params...); err != nil {
				fmt.Println("   herd error:", err)
			}
		}()
	}
	wg.Wait()
	cs := cache.Stats()
	fmt.Printf("6. 25 concurrent misses -> %d backend call(s), %d coalesced\n",
		ft.Stats().Calls-baseCalls, cs.Coalesced)

	fmt.Printf("\ncache: %d hits, %d misses, %d stale serves, %d coalesced, %d stores\n",
		cs.Hits, cs.Misses, cs.StaleServes, cs.Coalesced, cs.Stores)
	counters := reg.Snapshot().Counters
	fmt.Printf("breaker: %d trip(s), %d rejection(s)\n", counters["breaker.trips"], counters["breaker.rejections"])
	return nil
}

// short trims wrapped error chains for one-line demo output.
func short(err error) string {
	var open *client.BreakerOpenError
	if errors.As(err, &open) {
		return "breaker open"
	}
	return err.Error()
}
