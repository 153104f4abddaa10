package core_test

import (
	"context"
	"fmt"
	"log"
	"repro/internal/rep"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/transport"
)

// Example wires the response cache into a client call against the
// dummy Google service and shows the second identical request being
// served from the cache.
func Example() {
	dispatcher, codec, err := googleapi.NewDispatcher()
	if err != nil {
		log.Fatal(err)
	}

	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Hour,
	})

	call := client.NewCall(codec, &transport.InProcess{Handler: dispatcher},
		googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}})

	params := googleapi.SearchParams("key", "caching", 0, 10, false, "", false, "")
	for i := 0; i < 2; i++ {
		ictx, err := call.InvokeContext(context.Background(), params...)
		if err != nil {
			log.Fatal(err)
		}
		result := ictx.Result.(*googleapi.GoogleSearchResult)
		fmt.Printf("hit=%v results=%d\n", ictx.CacheHit, len(result.ResultElements))
	}
	stats := cache.Stats()
	fmt.Printf("hits=%d misses=%d\n", stats.Hits, stats.Misses)
	// Output:
	// hit=false results=3
	// hit=true results=3
	// hits=1 misses=1
}

// ExampleNewPolicy configures the paper's suggested policy shape: an
// allow-list of cacheable retrieval operations, everything else
// uncacheable.
func ExampleNewPolicy() {
	policy := core.NewPolicy(time.Hour, "KeywordSearch", "AuthorSearch")
	fmt.Println(policy.For("KeywordSearch").Cacheable)
	fmt.Println(policy.For("AddShoppingCartItems").Cacheable)
	// Output:
	// true
	// false
}

// ExampleSelector_Classify shows the Section 6 run-time classifier
// choosing a representation per result type.
func ExampleSelector_Classify() {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		log.Fatal(err)
	}
	auto := rep.NewStaticSelector(rep.NewRegistry(codec.Registry(), codec))

	for _, result := range []any{
		"a plain string",
		googleapi.Search("q", 0, 3),
		[]byte{1, 2, 3},
	} {
		ictx := &client.Context{Result: result}
		fmt.Printf("%-30T %s\n", result, auto.Classify(ictx))
	}
	// Output:
	// string                         Pass by reference
	// *googleapi.GoogleSearchResult  Copy by clone
	// []uint8                        Copy by reflection
}
