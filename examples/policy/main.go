// Policy: cache-policy configuration in the style the paper proposes
// for Amazon Web services (Table 1 and Section 3.2): twenty search
// operations cacheable with a TTL, six shopping-cart operations
// uncacheable, unknown operations uncacheable by default — all
// configured by the client-side administrator, with no change to the
// application or the wire protocol.
//
//	go run ./examples/policy
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/amazonapi"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/rep"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
)

// offer is a toy Amazon-style search result row.
type offer struct {
	Asin  string
	Title string
	Price float64
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: amazonapi.Namespace, Local: "Offer"}, offer{}); err != nil {
		return err
	}
	codec := soap.NewCodec(reg)

	// A toy Amazon-ish back end: searches are pure, the cart mutates.
	cart := 0
	disp := server.NewDispatcher(codec, amazonapi.Namespace)
	disp.Register("KeywordSearch", func(params []soap.Param) (any, error) {
		kw, _ := params[0].Value.(string)
		return &offer{Asin: "B0000" + kw, Title: "Results for " + kw, Price: 9.99}, nil
	})
	disp.Register("AddShoppingCartItems", func([]soap.Param) (any, error) {
		cart++
		return cart, nil
	})
	disp.Register("GetShoppingCart", func([]soap.Param) (any, error) {
		return cart, nil
	})

	// The paper's suggested policy, TTL one hour.
	policy := amazonapi.DefaultPolicy(time.Hour)
	fmt.Printf("policy: %d cacheable ops, %d uncacheable ops, default uncacheable\n",
		len(policy.CacheableOps()), len(policy.UncacheableOps()))

	cache := core.MustNew(core.Config{
		KeyGen: rep.NewStringKey(),
		Rep:    rep.NewRegistry(reg, codec),
		Policy: policy,
	})
	tr := &transport.InProcess{Handler: disp}
	opts := client.Options{Handlers: []client.Handler{cache}}
	call := func(op string) *client.Call {
		return client.NewCall(codec, tr, "http://amazon.example/soap", amazonapi.Namespace, op, "", opts)
	}

	ctx := context.Background()

	// Search twice: second time is a hit.
	for i := 0; i < 2; i++ {
		ictx, err := call("KeywordSearch").InvokeContext(ctx, soap.Param{Name: "keyword", Value: "go"})
		if err != nil {
			return err
		}
		fmt.Printf("KeywordSearch(go): hit=%v  %+v\n", ictx.CacheHit, ictx.Result)
	}

	// Cart operations always reach the server: caching an update (or a
	// read of mutable cart state) would return stale or wrong results.
	for i := 0; i < 2; i++ {
		if _, err := call("AddShoppingCartItems").Invoke(ctx, soap.Param{Name: "asin", Value: "B00001"}); err != nil {
			return err
		}
	}
	got, err := call("GetShoppingCart").Invoke(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("GetShoppingCart after 2 adds: %v (never cached, always fresh)\n", got)
	if got != 2 {
		return errors.New("cart state wrong — an update was served from cache")
	}

	// Unknown operation: the explicit default refuses to cache it.
	disp.Register("NewExperimentalSearch", func([]soap.Param) (any, error) { return "fresh", nil })
	for i := 0; i < 2; i++ {
		ictx, err := call("NewExperimentalSearch").InvokeContext(ctx)
		if err != nil {
			return err
		}
		if ictx.CacheHit {
			return errors.New("unknown operation was cached against the default policy")
		}
	}
	fmt.Println("NewExperimentalSearch: bypassed the cache both times (fail-safe default)")

	s := cache.Stats()
	fmt.Printf("cache stats: hits=%d misses=%d stores=%d bypass=%d\n", s.Hits, s.Misses, s.Stores, s.Bypass)
	return nil
}
