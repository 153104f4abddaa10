// Whole-stack integration tests over real HTTP: the dummy Google
// service behind net/http, the caching client in front, exercising the
// complete wire path the paper's Figure 1 describes — including the
// consistency validators and both cache placements.
package repro_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"repro/internal/rep"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/googlegen"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
)

// countingHandler wraps a handler and counts requests reaching it.
type countingHandler struct {
	inner http.Handler
	n     atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.n.Add(1)
	h.inner.ServeHTTP(w, r)
}

func TestIntegrationHTTPCachingClient(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	backend := &countingHandler{inner: disp}
	srv := httptest.NewServer(backend)
	defer srv.Close()

	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Hour,
	})
	call := client.NewCall(codec, &transport.HTTP{}, srv.URL, googleapi.Namespace,
		googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}})

	params := googleapi.SearchParams("k", "integration", 0, 10, false, "", false, "")
	ctx := context.Background()

	r1, err := call.Invoke(ctx, params...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := call.Invoke(ctx, params...)
	if err != nil {
		t.Fatal(err)
	}
	if backend.n.Load() != 1 {
		t.Errorf("backend requests = %d, want 1", backend.n.Load())
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cached result differs")
	}
	if r1 == r2 {
		t.Error("cache shared a mutable result")
	}
}

// TestIntegrationStreamedHitIsTheOriginEnvelope: for a byte-relaying
// consumer a hit must replay exactly what the origin sent — XML
// declaration included — whichever streaming representation holds it.
func TestIntegrationStreamedHitIsTheOriginEnvelope(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(disp)
	defer srv.Close()

	for _, name := range []string{"raw", "xmltmpl"} {
		store, err := rep.NewRegistry(codec.Registry(), codec).Store(name)
		if err != nil {
			t.Fatal(err)
		}
		cache := core.MustNew(core.Config{KeyGen: rep.NewStringKey(), Store: store, DefaultTTL: time.Hour})
		call := client.NewCall(codec, &transport.HTTP{}, srv.URL, googleapi.Namespace,
			googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
			client.Options{AcceptStream: true, Handlers: []client.Handler{cache}})
		params := googleapi.SearchParams("k", "stream identity", 0, 10, false, "", false, "")

		var replay [2]bytes.Buffer
		for i := range replay {
			ictx, err := call.InvokeContext(context.Background(), params...)
			if err != nil {
				t.Fatal(err)
			}
			if ictx.CacheHit != (i == 1) {
				t.Fatalf("%s: call %d: hit = %v", name, i, ictx.CacheHit)
			}
			stream, ok := ictx.Stream()
			if !ok {
				t.Fatalf("%s: call %d: nothing to stream", name, i)
			}
			if _, err := stream.WriteTo(&replay[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(replay[0].Bytes(), []byte("<?xml")) {
			t.Fatalf("%s: origin envelope has no XML declaration; the test lost its point", name)
		}
		if !bytes.Equal(replay[0].Bytes(), replay[1].Bytes()) {
			t.Errorf("%s: streamed hit diverges from the origin's envelope\n miss: %s\n  hit: %s", name, replay[0].Bytes(), replay[1].Bytes())
		}
	}
}

func TestIntegrationHTTPRevalidation(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	disp.SetValidatorPolicy(time.Now().Add(-time.Hour), time.Minute)
	backend := &countingHandler{inner: disp}
	srv := httptest.NewServer(backend)
	defer srv.Close()

	nowSec := new(int64)
	atomic.StoreInt64(nowSec, time.Now().Unix())
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Minute,
		Revalidate: true,
		Clock:      func() time.Time { return time.Unix(atomic.LoadInt64(nowSec), 0) },
	})
	call := client.NewCall(codec, &transport.HTTP{}, srv.URL, googleapi.Namespace,
		googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}})
	params := googleapi.SearchParams("k", "reval", 0, 10, false, "", false, "")

	if _, err := call.Invoke(context.Background(), params...); err != nil {
		t.Fatal(err)
	}
	atomic.AddInt64(nowSec, 120)
	ictx, err := call.InvokeContext(context.Background(), params...)
	if err != nil {
		t.Fatal(err)
	}
	if !ictx.NotModified || !ictx.CacheHit {
		t.Errorf("expected a 304 refresh over real HTTP: 304=%v hit=%v", ictx.NotModified, ictx.CacheHit)
	}
	if backend.n.Load() != 2 {
		t.Errorf("backend requests = %d, want 2 (one full, one conditional)", backend.n.Load())
	}
	if cache.Stats().Revalidations != 1 {
		t.Errorf("revalidations = %d", cache.Stats().Revalidations)
	}
}

func TestIntegrationServerSideCacheOverHTTP(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	var handlerCalls atomic.Int64
	disp.Register("counted", func(params []soap.Param) (any, error) {
		handlerCalls.Add(1)
		return "ok", nil
	})
	cached := server.NewResponseCache(disp, server.ResponseCacheConfig{TTL: time.Hour})
	srv := httptest.NewServer(cached)
	defer srv.Close()

	call := client.NewCall(codec, &transport.HTTP{}, srv.URL, googleapi.Namespace,
		"counted", "", client.Options{})
	for i := 0; i < 3; i++ {
		res, err := call.Invoke(context.Background(), soap.Param{Name: "q", Value: "same"})
		if err != nil {
			t.Fatal(err)
		}
		if res != "ok" {
			t.Errorf("res = %#v", res)
		}
	}
	if handlerCalls.Load() != 1 {
		t.Errorf("handler calls = %d, want 1 (server cache)", handlerCalls.Load())
	}
}

func TestIntegrationGeneratedClientOverHTTP(t *testing.T) {
	disp, _, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(disp)
	defer srv.Close()

	reg := typemap.NewRegistry()
	if err := googlegen.RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	defs, err := wsdl.Parse([]byte(googleapi.WSDL))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := googlegen.NewGoogleSearchClient(defs, soap.NewCodec(reg), &transport.HTTP{},
		client.ServiceConfig{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.DoGoogleSearch(context.Background(), "k", "generated over http", 0, 10, false, "", false, "", "latin1", "latin1")
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchQuery != "generated over http" || len(res.ResultElements) == 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestIntegrationWSDLServedAndConsumed(t *testing.T) {
	// Serve the WSDL like cmd/dummygoogle does; fetch and parse it, and
	// drive a call from the parsed description.
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", disp)
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(googleapi.WSDL))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	wsdlDoc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := wsdl.Parse(wsdlDoc)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := client.NewService(defs, codec, &transport.HTTP{}, client.ServiceConfig{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Invoke(context.Background(), googleapi.OpSpellingSuggestion,
		googleapi.SpellingParams("k", "helo")...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(string); !ok {
		t.Errorf("res = %T", res)
	}
}
