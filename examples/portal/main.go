// Portal: the paper's motivating scenario (Sections 1 and 5.2). A
// portal site fans out to three back-end Web services — search,
// spelling suggestions, and cached pages — through caching client
// middleware, then a small load run demonstrates the cache's effect on
// page latency.
//
// The whole stack shares one obs.Registry, so the load run ends with a
// stage-level latency summary and, when serving, the portal exposes the
// live snapshot at /debug/wscache:
//
//	go run ./examples/portal              # self-driving demo
//	go run ./examples/portal -addr :9090  # also serve the portal page
//	curl http://localhost:9090/debug/wscache
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/portal"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/transport"
)

func main() {
	addr := flag.String("addr", "", "also serve the portal over HTTP at this address")
	flag.Parse()
	if err := run(context.Background(), *addr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, addr string) error {
	dispatcher, codec, err := googleapi.NewDispatcher()
	if err != nil {
		return err
	}
	// One registry for every layer of the stack: cache core, client
	// pivot, transport, and portal all record into it, so one snapshot
	// tells the whole story.
	reg := obs.NewRegistry()
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Store:      rep.NewAutoStore(codec.Registry(), codec),
		DefaultTTL: time.Hour,
		MaxEntries: 10_000,
		Obs:        reg,
	})
	tr := &transport.InProcess{Handler: dispatcher, Obs: reg}
	opts := client.Options{Handlers: []client.Handler{cache}, Obs: reg}
	newCall := func(op string) *client.Call {
		return client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace,
			op, "urn:GoogleSearchAction", opts)
	}

	site := portal.New(
		portal.Backend{
			Name: "Web Search",
			Call: newCall(googleapi.OpGoogleSearch),
			Params: func(q string) []soap.Param {
				return googleapi.SearchParams("key", q, 0, 10, false, "", false, "")
			},
		},
		portal.Backend{
			Name: "Did you mean",
			Call: newCall(googleapi.OpSpellingSuggestion),
			Params: func(q string) []soap.Param {
				return googleapi.SpellingParams("key", q)
			},
		},
		portal.Backend{
			Name: "Cached copy",
			Call: newCall(googleapi.OpGetCachedPage),
			Params: func(q string) []soap.Param {
				return googleapi.CachedPageParams("key", "http://portal.example/"+q)
			},
		},
	)
	site.Instrument(reg, nil)

	// Demonstration load: 60% of page views repeat popular queries.
	hot := []string{"web services", "response caching", "soap performance"}
	for _, q := range hot {
		if _, err := site.RenderContext(ctx, q); err != nil {
			return err
		}
	}
	res, err := loadgen.RunContext(ctx, loadgen.Config{
		Concurrency: 4,
		Requests:    400,
		HitRatio:    0.6,
		HotQueries:  hot,
		MissQuery:   func(i int) string { return fmt.Sprintf("unique query %d", i) },
		Do: func(q string) error {
			_, err := site.RenderContext(ctx, q)
			return err
		},
	})
	if err != nil {
		return err
	}
	fmt.Println("portal load:", res)
	stats := cache.Stats()
	fmt.Printf("cache: %d hits / %d misses (ratio %.0f%%), %d entries, %d bytes\n",
		stats.Hits, stats.Misses, 100*stats.HitRatio(), stats.Entries, stats.Bytes)
	printStages(reg.Snapshot())

	if addr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", site)
		mux.Handle(obs.DebugPath, obs.Handler(reg))
		fmt.Printf("serving portal at http://%s/?q=your+query\n", addr)
		fmt.Printf("observability at http://%s%s\n", addr, obs.DebugPath)
		srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		return srv.ListenAndServe()
	}
	return nil
}

// printStages summarizes the per-stage latency series of a snapshot.
func printStages(snap obs.Snapshot) {
	fmt.Println("stage latencies (p50/p99):")
	for _, st := range snap.Stages {
		label := string(st.Stage)
		if st.Representation != "" {
			label += " [" + st.Representation + "]"
		}
		fmt.Printf("  %-40s n=%-6d p50=%-10s p99=%s\n", label, st.Latency.Count,
			time.Duration(st.Latency.P50NS), time.Duration(st.Latency.P99NS))
	}
}
