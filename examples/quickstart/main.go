// Quickstart: a caching Web services client in ~60 lines.
//
// It wires the pieces the paper's Figure 1 shows: a SOAP client call
// over an in-process transport to the dummy Google service, with the
// response cache installed as a client-middleware handler. The second
// identical request is served from the cache without touching the
// server.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The back end: a dummy Google Web services dispatcher (decodes
	// requests, generates deterministic results, encodes responses).
	dispatcher, codec, err := googleapi.NewDispatcher()
	if err != nil {
		return err
	}

	// The paper's contribution: a response cache selecting the optimal
	// value representation per result type at run time (Section 6).
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(), // toString-analog keys (Table 6 winner)
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Hour, // "one hour is short enough" for these ops
	})

	// A client call with the cache installed in its handler chain.
	call := client.NewCall(codec, &transport.InProcess{Handler: dispatcher},
		googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}})

	params := googleapi.SearchParams("demo-key", "response caching", 0, 10, false, "", false, "")

	for i := 1; i <= 3; i++ {
		start := time.Now()
		ictx, err := call.InvokeContext(context.Background(), params...)
		if err != nil {
			return err
		}
		result := ictx.Result.(*googleapi.GoogleSearchResult)
		fmt.Printf("call %d: hit=%-5v %6v  %d results for %q\n",
			i, ictx.CacheHit, time.Since(start).Round(time.Microsecond),
			len(result.ResultElements), result.SearchQuery)
	}

	stats := cache.Stats()
	fmt.Printf("\ncache: %d hits, %d misses, %d stores, %d bytes\n",
		stats.Hits, stats.Misses, stats.Stores, stats.Bytes)
	return nil
}
