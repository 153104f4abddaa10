// Revalidation and invalidation: the consistency ladder end to end.
//
// Rung one is the HTTP 1.1 mechanism the paper points to (Section
// 3.2): the server stamps responses with Last-Modified and
// Cache-Control; the cache keeps expired entries as stale and sends
// conditional requests (If-Modified-Since); the server answers 304 Not
// Modified and the cache refreshes the entry without reprocessing the
// response. This is the pull-based fallback every operation gets.
//
// Rung two is dependency-aware invalidation (package invalidate):
// operations with declared read/write sets get push-based epoch
// invalidation — a write-through call invalidates every dependent
// entry at once, and the cache refuses to revalidate such entries even
// when the server (whose validator here deliberately lies) would
// happily answer 304.
//
//	go run ./examples/revalidation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
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
	// The server's resource was last modified a day ago; responses are
	// declared fresh for one minute.
	dispatcher.SetValidatorPolicy(time.Now().Add(-24*time.Hour), time.Minute)

	// A controllable clock stands in for waiting out real TTLs.
	now := time.Now()
	clock := func() time.Time { return now }

	// The invalidation graph covers only the item operations; the
	// paper's search operations declare nothing and stay on the 304
	// fallback below.
	cache := core.MustNew(core.Config{
		KeyGen:         rep.NewStringKey(),
		Rep:            rep.NewRegistry(codec.Registry(), codec),
		Revalidate:     true, // keep stale entries, send conditional requests
		HonorServerTTL: true, // the server's max-age drives expiry
		Clock:          clock,
		Invalidator:    invalidate.New(googleapi.ItemGraph(), nil),
	})

	call := client.NewCall(codec, &transport.InProcess{Handler: dispatcher},
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch,
		"urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}})

	params := googleapi.SearchParams("demo", "consistency", 0, 10, false, "", false, "")
	describe := func(step string, ictx *client.Context, took time.Duration) {
		fmt.Printf("%-28s hit=%-5v 304=%-5v %8v\n", step, ictx.CacheHit, ictx.NotModified, took.Round(time.Microsecond))
	}

	invoke := func(step string) (*client.Context, error) {
		start := time.Now()
		ictx, err := call.InvokeContext(context.Background(), params...)
		if err != nil {
			return nil, err
		}
		describe(step, ictx, time.Since(start))
		return ictx, nil
	}

	if _, err := invoke("1. cold miss (full fetch)"); err != nil {
		return err
	}
	if _, err := invoke("2. fresh hit (no traffic)"); err != nil {
		return err
	}

	now = now.Add(2 * time.Minute) // entry expires per server max-age
	if _, err := invoke("3. stale -> conditional, 304"); err != nil {
		return err
	}
	if _, err := invoke("4. refreshed hit"); err != nil {
		return err
	}

	// The resource changes on the server; the next revalidation gets a
	// full response instead of 304.
	dispatcher.SetValidatorPolicy(time.Now().Add(time.Hour), time.Minute)
	now = now.Add(2 * time.Minute)
	if _, err := invoke("5. stale -> modified, refetch"); err != nil {
		return err
	}

	// Act two: the push-based rung. The server's validator now lies —
	// it stamps everything unmodified-for-a-day, so pure 304
	// revalidation would never see the item change. The declared write
	// set on doPutItem makes the change visible anyway.
	dispatcher.SetValidatorPolicy(time.Now().Add(-24*time.Hour), time.Minute)
	fmt.Println()

	itemCall := func(op string) *client.Call {
		return client.NewCall(codec, &transport.InProcess{Handler: dispatcher},
			googleapi.Endpoint, googleapi.Namespace, op, "urn:GoogleSearchAction",
			client.Options{Handlers: []client.Handler{cache}})
	}
	getItem, putItem := itemCall(googleapi.OpGetItem), itemCall(googleapi.OpPutItem)

	item := func(step, key string) error {
		start := time.Now()
		ictx, err := getItem.InvokeContext(context.Background(), googleapi.GetItemParams(key)...)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s hit=%-5v 304=%-5v value=%-4q %8v\n",
			step, ictx.CacheHit, ictx.NotModified, ictx.Result, time.Since(start).Round(time.Microsecond))
		return nil
	}

	if _, err := putItem.Invoke(context.Background(), googleapi.PutItemParams("answer", "42")...); err != nil {
		return err
	}
	if err := item("6. cold miss (fill)", "answer"); err != nil {
		return err
	}
	if err := item("7. fresh hit", "answer"); err != nil {
		return err
	}
	// Write through the cache: doPutItem's declared write set bumps the
	// epochs for item:answer and the listing keyspace before the call
	// returns.
	if _, err := putItem.Invoke(context.Background(), googleapi.PutItemParams("answer", "43")...); err != nil {
		return err
	}
	if err := item("8. invalidated -> refetch", "answer"); err != nil {
		return err
	}

	s := cache.Stats()
	fmt.Printf("\ncache: %d hits, %d misses, %d revalidations, %d invalidations, %d stores\n",
		s.Hits, s.Misses, s.Revalidations, s.Invalidations, s.Stores)
	return nil
}
