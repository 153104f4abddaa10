package portal

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"repro/internal/rep"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/soap"
	"repro/internal/transport"
)

// newPortal wires a portal over the dummy Google dispatcher with a
// caching client, returning the site and the cache for inspection.
func newPortal(t *testing.T) (*Site, *core.Cache) {
	t.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Store:      rep.NewAutoStore(codec.Registry(), codec),
		DefaultTTL: time.Hour,
	})
	tr := &transport.InProcess{Handler: disp}
	opts := client.Options{Handlers: []client.Handler{cache}}

	searchCall := client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpGoogleSearch, "urn:GoogleSearchAction", opts)
	spellCall := client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpSpellingSuggestion, "urn:GoogleSearchAction", opts)

	site := New(
		Backend{
			Name: "Web Search",
			Call: searchCall,
			Params: func(q string) []soap.Param {
				return googleapi.SearchParams("key", q, 0, 10, false, "", false, "")
			},
		},
		Backend{
			Name: "Did you mean",
			Call: spellCall,
			Params: func(q string) []soap.Param {
				return googleapi.SpellingParams("key", q)
			},
		},
	)
	return site, cache
}

func TestRenderContainsBackendResults(t *testing.T) {
	site, _ := newPortal(t)
	page, err := site.RenderContext(context.Background(), "golang caching")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Web Search", "Did you mean", "<ol>", "golang caching"} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func TestRenderUsesCache(t *testing.T) {
	site, cache := newPortal(t)
	if _, err := site.RenderContext(context.Background(), "repeat me"); err != nil {
		t.Fatal(err)
	}
	s1 := cache.Stats()
	if s1.Stores == 0 {
		t.Fatal("first render stored nothing")
	}
	if _, err := site.RenderContext(context.Background(), "repeat me"); err != nil {
		t.Fatal(err)
	}
	s2 := cache.Stats()
	if s2.Hits != s1.Hits+2 {
		t.Errorf("second render hits = %d, want %d", s2.Hits, s1.Hits+2)
	}
}

func TestRenderDeterministicAcrossCacheHit(t *testing.T) {
	site, _ := newPortal(t)
	p1, err := site.RenderContext(context.Background(), "stable")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := site.RenderContext(context.Background(), "stable")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cached render differs from uncached")
	}
}

func TestServeHTTP(t *testing.T) {
	site, _ := newPortal(t)
	srv := httptest.NewServer(site)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?q=hello")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "hello") {
		t.Error("page missing query")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
}

func TestServeHTTPDefaultQuery(t *testing.T) {
	site, _ := newPortal(t)
	srv := httptest.NewServer(site)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRenderBackendFailure(t *testing.T) {
	// A portal whose backend transport fails must surface the error.
	codec := soap.NewCodec(nil)
	_ = codec
	failing := client.NewCall(
		soap.NewCodec(nil),
		transportFailer{},
		"ep", "urn:x", "op", "", client.Options{},
	)
	site := New(Backend{
		Name:   "broken",
		Call:   failing,
		Params: func(string) []soap.Param { return nil },
	})
	if _, err := site.RenderContext(context.Background(), "q"); err == nil {
		t.Error("expected backend error")
	}
	srv := httptest.NewServer(site)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

type transportFailer struct{}

func (transportFailer) Send(_ context.Context, _ *transport.Request) (*transport.Response, error) {
	return nil, io.ErrUnexpectedEOF
}
