package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/sax"
	"repro/internal/soap"
	"repro/internal/typemap"
)

const testNS = "urn:CacheTest"

type item struct {
	Name  string
	Score float64
	Tags  []string
}

type cloneableItem struct {
	Name string
}

func (c *cloneableItem) CloneDeep() any { out := *c; return &out }

type opaqueResult struct {
	Name   string
	secret int
}

// fixture bundles the registry/codec and fabricates invocation contexts
// as the client middleware would populate them.
type fixture struct {
	reg   *typemap.Registry
	codec *soap.Codec
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: testNS, Local: "Item"}, item{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(typemap.QName{Space: testNS, Local: "CloneableItem"}, cloneableItem{}); err != nil {
		t.Fatal(err)
	}
	return &fixture{reg: reg, codec: soap.NewCodec(reg)}
}

// ictx fabricates a post-pivot invocation context: result plus response
// XML and recorded events, exactly what a real invocation captures.
func (f *fixture) ictx(t *testing.T, op string, result any, params ...soap.Param) *client.Context {
	t.Helper()
	respXML, err := f.codec.EncodeResponse(testNS, op, result)
	if err != nil {
		t.Fatal(err)
	}
	events, err := sax.Record(respXML)
	if err != nil {
		t.Fatal(err)
	}
	return &client.Context{
		Ctx:            context.Background(),
		Endpoint:       "http://test/endpoint",
		Namespace:      testNS,
		Operation:      op,
		Params:         params,
		ResponseXML:    respXML,
		ResponseEvents: events,
		Result:         result,
	}
}

// reqCtx fabricates a pre-invocation context (request side only).
func (f *fixture) reqCtx(op string, params ...soap.Param) *client.Context {
	return &client.Context{
		Ctx:       context.Background(),
		Endpoint:  "http://test/endpoint",
		Namespace: testNS,
		Operation: op,
		Params:    params,
	}
}

// countingNext returns an Invoker that fills the context from fill and
// counts invocations. The counter is atomic so concurrent tests can
// share the invoker.
func countingNext(f *fixture, t *testing.T, result func() any) (client.Invoker, *atomic.Int64) {
	calls := new(atomic.Int64)
	return func(ictx *client.Context) error {
		calls.Add(1)
		full := f.ictx(t, ictx.Operation, result(), ictx.Params...)
		ictx.Result = full.Result
		ictx.ResponseXML = full.ResponseXML
		ictx.ResponseEvents = full.ResponseEvents
		return nil
	}, calls
}

func newCache(t *testing.T, f *fixture, mutate func(*Config)) *Cache {
	t.Helper()
	cfg := Config{
		KeyGen: rep.NewStringKey(),
		Store:  rep.NewReflectCopyStore(f.reg),
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

func TestCacheHitSkipsPivot(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	next, calls := countingNext(f, t, func() any { return &item{Name: "a", Score: 1} })

	ictx1 := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx1, next); err != nil {
		t.Fatal(err)
	}
	if ictx1.CacheHit {
		t.Error("first call reported as hit")
	}

	ictx2 := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx2, next); err != nil {
		t.Fatal(err)
	}
	if !ictx2.CacheHit {
		t.Error("second call not a hit")
	}
	if calls.Load() != 1 {
		t.Errorf("pivot calls = %d, want 1", calls.Load())
	}
	got := ictx2.Result.(*item)
	if got.Name != "a" || got.Score != 1 {
		t.Errorf("hit result = %+v", got)
	}

	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v", s.HitRatio())
	}
}

func TestCacheDifferentParamsMiss(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	n := 0
	next, calls := countingNext(f, t, func() any { n++; return &item{Name: fmt.Sprintf("r%d", n)} })

	for _, q := range []string{"a", "b", "a", "b"} {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: q})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("pivot calls = %d, want 2", calls.Load())
	}
}

// callByCopyClass is a census result class the call-by-copy tests
// drive through the Section 6 selector: a result, how a client writes
// into its copy, and the representation that holds it in L1.
type callByCopyClass struct {
	name, held string
	result     func() any
	mutate     func(any)
}

var callByCopyClasses = []callByCopyClass{
	{"clone", "Copy by clone", searchResult, func(v any) {
		r := v.(*googleapi.GoogleSearchResult)
		r.SearchQuery = "mutated"
		r.ResultElements[0].Title = "mutated"
	}},
	{"reflect", "Copy by reflection", func() any { return &item{Name: "n", Score: 1, Tags: []string{"a"}} }, func(v any) {
		it := v.(*item)
		it.Name = "mutated"
		it.Tags[0] = "mutated"
	}},
	{"bytes", "Copy by reflection", func() any { return []byte("bytes") }, func(v any) { v.([]byte)[0] = 'Z' }},
	{"sax", "SAX events sequence", func() any { return &opaqueResult{Name: "o"} }, func(v any) { v.(*opaqueResult).Name = "mutated" }},
}

// callByCopyFixture is promoteFixture with opaqueResult registered too:
// its envelope carries the exported field, and the unexported one keeps
// it from being a bean, so the selector holds it as SAX events.
func callByCopyFixture(t *testing.T) *fixture {
	t.Helper()
	f := promoteFixture(t)
	if err := f.reg.Register(typemap.QName{Space: testNS, Local: "Opaque"}, opaqueResult{}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCallByCopySemantics: paper Section 3.1, mutations by the client
// must not leak into the cache, in either direction, for each class
// the Section 6 selector copies in its own way.
func TestCallByCopySemantics(t *testing.T) {
	f := callByCopyFixture(t)
	for _, cl := range callByCopyClasses {
		t.Run(cl.name, func(t *testing.T) {
			c := newCache(t, f, func(cfg *Config) {
				cfg.Store, cfg.Rep = nil, rep.NewRegistry(f.reg, f.codec)
			})
			next, _ := countingNext(f, t, cl.result)
			call := func() *client.Context {
				ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
				if err := c.HandleInvoke(ictx, next); err != nil {
					t.Fatal(err)
				}
				return ictx
			}
			// The client mutates the object it received on the miss path.
			cl.mutate(call().Result)
			hit := call()
			if !hit.CacheHit || !reflect.DeepEqual(hit.Result, cl.result()) {
				t.Errorf("cache corrupted by client mutation: hit %v, %+v", hit.CacheHit, hit.Result)
			}
			// Mutating the hit result must not affect later hits either.
			cl.mutate(hit.Result)
			if again := call(); !reflect.DeepEqual(again.Result, cl.result()) {
				t.Errorf("cache corrupted by mutation of a hit result: %+v", again.Result)
			}
			if got := heldBy(t, c, f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})); got != cl.held {
				t.Errorf("held by %q, want %q", got, cl.held)
			}
		})
	}
}

func TestTTLExpiry(t *testing.T) {
	f := newFixture(t)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Hour
		cfg.Clock = clock
	})
	next, calls := countingNext(f, t, func() any { return &item{Name: "x"} })

	run := func() *client.Context {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
		return ictx
	}

	run()
	now = now.Add(30 * time.Minute)
	if !run().CacheHit {
		t.Error("entry expired too early")
	}
	now = now.Add(31 * time.Minute)
	if run().CacheHit {
		t.Error("entry served after TTL")
	}
	if calls.Load() != 2 {
		t.Errorf("pivot calls = %d, want 2", calls.Load())
	}
	if c.Stats().Expirations != 1 {
		t.Errorf("expirations = %d", c.Stats().Expirations)
	}
}

func TestPerOperationTTL(t *testing.T) {
	f := newFixture(t)
	now := time.Unix(1000, 0)
	c := newCache(t, f, func(cfg *Config) {
		cfg.DefaultTTL = time.Hour
		cfg.Clock = func() time.Time { return now }
		cfg.Policy = Policy{Operations: map[string]OperationPolicy{
			"fast": {Cacheable: true, TTL: time.Minute},
		}}
	})
	next, _ := countingNext(f, t, func() any { return &item{} })

	ictx := f.reqCtx("fast", soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	ictx2 := f.reqCtx("fast", soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx2, next); err != nil {
		t.Fatal(err)
	}
	if ictx2.CacheHit {
		t.Error("per-operation TTL not honored")
	}
}

func TestUncacheableOperationBypasses(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) {
		cfg.Policy = NewPolicy(time.Hour, "search")
	})
	next, calls := countingNext(f, t, func() any { return &item{} })

	for i := 0; i < 3; i++ {
		ictx := f.reqCtx("addToCart", soap.Param{Name: "item", Value: "x"})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
		if ictx.CacheHit {
			t.Error("uncacheable op hit the cache")
		}
	}
	if calls.Load() != 3 {
		t.Errorf("pivot calls = %d, want 3", calls.Load())
	}
	s := c.Stats()
	if s.Bypass != 3 || s.Stores != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestErrorFromPivotNotCached(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	boom := errors.New("backend down")
	fail := true
	next := func(ictx *client.Context) error {
		if fail {
			return boom
		}
		full := f.ictx(t, ictx.Operation, &item{Name: "ok"}, ictx.Params...)
		ictx.Result, ictx.ResponseXML, ictx.ResponseEvents = full.Result, full.ResponseXML, full.ResponseEvents
		return nil
	}

	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Entries != 0 {
		t.Error("failed invocation was cached")
	}

	fail = false
	ictx2 := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx2, next); err != nil {
		t.Fatal(err)
	}
	if ictx2.CacheHit {
		t.Error("hit after only a failed invocation")
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	f := newFixture(t)
	// Shards: 1 keeps the exact global LRU order this test asserts;
	// with several shards eviction is per-shard LRU and the victim
	// depends on key placement.
	c := newCache(t, f, func(cfg *Config) { cfg.MaxEntries = 2; cfg.Shards = 1 })
	next, _ := countingNext(f, t, func() any { return &item{Name: "v"} })

	get := func(q string) *client.Context {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: q})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
		return ictx
	}

	get("a")
	get("b")
	get("a") // refresh a
	get("c") // evicts b (LRU)
	if c.Stats().Entries != 2 {
		t.Fatalf("len = %d", c.Stats().Entries)
	}
	if !get("a").CacheHit {
		t.Error("a should have survived (recently used)")
	}
	if get("b").CacheHit {
		t.Error("b should have been evicted")
	}
	if c.Stats().Evictions < 1 {
		t.Error("no evictions recorded")
	}
}

func TestEvictionByBytes(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) {
		cfg.MaxBytes = 4096
		cfg.Shards = 1 // one shard owns the whole byte budget
		cfg.Store = rep.NewXMLMessageStore(f.codec)
	})
	big := make([]string, 40)
	for i := range big {
		big[i] = "tag-with-some-length"
	}
	next, _ := countingNext(f, t, func() any { return &item{Name: "v", Tags: big} })

	for i := 0; i < 10; i++ {
		ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: fmt.Sprintf("q%d", i)})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Bytes > 4096 {
		t.Errorf("bytes = %d over budget", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions under byte budget")
	}
	if s.Entries != c.Stats().Entries {
		t.Errorf("entries stat mismatch: %d vs %d", s.Entries, c.Stats().Entries)
	}
}

func TestClear(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil)
	next, _ := countingNext(f, t, func() any { return &item{} })
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if c.Stats().Entries != 0 {
		t.Error("clear left entries")
	}
	if c.Stats().Bytes != 0 {
		t.Error("clear left bytes")
	}
}

func TestKeyGenFailureFailsOpen(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, nil) // StringKey
	next, calls := countingNext(f, t, func() any { return &item{} })

	// A struct param has no value-based string form: key generation
	// fails, the invocation must still succeed, uncached.
	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: &item{Name: "param"}})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || ictx.CacheHit {
		t.Errorf("calls = %d hit = %v", calls.Load(), ictx.CacheHit)
	}
	if c.Stats().Errors == 0 {
		t.Error("key failure not counted")
	}
}

func TestStoreFailureFailsOpen(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) { cfg.Store = rep.NewCloneCopyStore() })
	next, _ := countingNext(f, t, func() any { return &item{} }) // item is not a Cloner

	ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: "x"})
	if err := c.HandleInvoke(ictx, next); err != nil {
		t.Fatal(err)
	}
	if ictx.Result == nil {
		t.Error("result lost on store failure")
	}
	if c.Stats().Entries != 0 {
		t.Error("unapplicable store created an entry")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Store: rep.NewCloneCopyStore()}); err == nil {
		t.Error("missing KeyGen accepted")
	}
	if _, err := New(Config{KeyGen: rep.NewStringKey()}); err == nil {
		t.Error("missing Store accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestStatsByOperation(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) {
		cfg.Policy = NewPolicy(time.Hour, "search")
	})
	next, _ := countingNext(f, t, func() any { return &item{} })

	invoke := func(op, q string) {
		t.Helper()
		ictx := f.reqCtx(op, soap.Param{Name: "q", Value: q})
		if err := c.HandleInvoke(ictx, next); err != nil {
			t.Fatal(err)
		}
	}
	invoke("search", "a") // miss + store
	invoke("search", "a") // hit
	invoke("search", "b") // miss + store
	invoke("addToCart", "x")
	invoke("addToCart", "y")

	stats := c.reg.Snapshot().Operations
	s := stats["search"]
	if s.Hits != 1 || s.Misses != 2 || s.Stores != 2 || s.Bypass != 0 {
		t.Errorf("search stats = %+v", s)
	}
	if got := s.HitRatio; got < 0.33 || got > 0.34 {
		t.Errorf("search hit ratio = %v", got)
	}
	cart := stats["addToCart"]
	if cart.Bypass != 2 || cart.Hits != 0 || cart.Stores != 0 {
		t.Errorf("cart stats = %+v", cart)
	}
	// The snapshot is a copy: mutating it does not affect the cache.
	delete(stats, "search")
	if c.reg.Snapshot().Operations["search"].Hits != 1 {
		t.Error("snapshot aliased internal state")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	f := newFixture(t)
	c := newCache(t, f, func(cfg *Config) { cfg.MaxEntries = 16 })
	next, _ := countingNext(f, t, func() any { return &item{Name: "v", Tags: []string{"a"}} })

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 200; i++ {
				ictx := f.reqCtx(opGet, soap.Param{Name: "q", Value: fmt.Sprintf("q%d", (g+i)%24)})
				if e := c.HandleInvoke(ictx, next); e != nil {
					err = e
					return
				}
				if it, ok := ictx.Result.(*item); !ok || it.Name != "v" {
					err = fmt.Errorf("bad result %#v", ictx.Result)
					return
				}
				// Hammer the copy: mutations must stay private.
				ictx.Result.(*item).Tags[0] = "mutated"
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
