package googleapi

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
)

func TestGeneratorsDeterministic(t *testing.T) {
	if SpellingSuggestion("worl peace") != SpellingSuggestion("worl peace") {
		t.Error("spelling not deterministic")
	}
	if !bytes.Equal(CachedPage("http://a/"), CachedPage("http://a/")) {
		t.Error("cached page not deterministic")
	}
	if !reflect.DeepEqual(Search("q", 0, 10), Search("q", 0, 10)) {
		t.Error("search not deterministic")
	}
}

func TestGeneratorsDistinctInputs(t *testing.T) {
	if SpellingSuggestion("alpha beta") == SpellingSuggestion("gamma delta") {
		t.Error("distinct phrases gave identical suggestions")
	}
	if bytes.Equal(CachedPage("http://a/"), CachedPage("http://b/")) {
		t.Error("distinct urls gave identical pages")
	}
	if reflect.DeepEqual(Search("one", 0, 10), Search("two", 0, 10)) {
		t.Error("distinct queries gave identical results")
	}
}

func TestSearchShapeMatchesPaper(t *testing.T) {
	r := Search("golang", 0, 10)
	// Table 5 / Section 5.1: 11 fields on the result type.
	if n := reflect.TypeOf(*r).NumField(); n != 11 {
		t.Errorf("GoogleSearchResult has %d fields, want 11", n)
	}
	// ResultElement: 10 fields, 9 simple + 1 DirectoryCategory.
	if n := reflect.TypeOf(ResultElement{}).NumField(); n != 10 {
		t.Errorf("ResultElement has %d fields, want 10", n)
	}
	if n := reflect.TypeOf(DirectoryCategory{}).NumField(); n != 2 {
		t.Errorf("DirectoryCategory has %d fields, want 2", n)
	}
	if len(r.ResultElements) == 0 {
		t.Error("no result elements")
	}
	if r.SearchQuery != "golang" {
		t.Errorf("query = %q", r.SearchQuery)
	}
	if r.StartIndex != 1 || r.EndIndex != len(r.ResultElements) {
		t.Errorf("index range = %d..%d", r.StartIndex, r.EndIndex)
	}
}

func TestSearchMaxResults(t *testing.T) {
	r := Search("q", 0, 2)
	if len(r.ResultElements) != 2 {
		t.Errorf("got %d elements, want 2", len(r.ResultElements))
	}
}

func TestCloneDeepSubTypes(t *testing.T) {
	re := &ResultElement{Title: "t", DirectoryCategory: DirectoryCategory{FullViewableName: "Top"}}
	cre := re.CloneDeep().(*ResultElement)
	if cre == re || !reflect.DeepEqual(cre, re) {
		t.Error("ResultElement clone broken")
	}
	cre.DirectoryCategory.FullViewableName = "mutated"
	if re.DirectoryCategory.FullViewableName != "Top" {
		t.Error("ResultElement clone aliased")
	}

	dc := &DirectoryCategory{FullViewableName: "Top", SpecialEncoding: "u"}
	cdc := dc.CloneDeep().(*DirectoryCategory)
	if cdc == dc || *cdc != *dc {
		t.Error("DirectoryCategory clone broken")
	}
}

// overBlock is a result past searchBlock's bound: four elements and
// two categories, one more of each than Search makes, so CloneDeep
// copies it in three allocations.
func overBlock() *GoogleSearchResult {
	r := *Search("clone me", 0, 10)
	r.ResultElements = append(slices.Clone(r.ResultElements), r.ResultElements[0])
	r.DirectoryCategories = append(slices.Clone(r.DirectoryCategories), DirectoryCategory{FullViewableName: "Top/Science"})
	return &r
}

// TestCloneDeepIndependence mutates a clone and its original, on the
// one-block path and on the three-allocation one, and requires that
// neither write reaches the other.
func TestCloneDeepIndependence(t *testing.T) {
	for _, tc := range []struct {
		name string
		orig *GoogleSearchResult
	}{
		{"block", Search("clone me", 0, 10)},
		{"part of a block", Search("clone me", 0, 2)},
		{"over block", overBlock()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.orig
			cp := orig.CloneDeep().(*GoogleSearchResult)
			if !reflect.DeepEqual(orig, cp) {
				t.Fatal("clone differs")
			}
			cp.ResultElements[0].Title = "mutated"
			cp.ResultElements[len(cp.ResultElements)-1].DirectoryCategory.FullViewableName = "mutated"
			cp.DirectoryCategories[0].FullViewableName = "mutated"
			cp.SearchQuery = "mutated"
			if orig.ResultElements[0].Title == "mutated" ||
				orig.ResultElements[len(orig.ResultElements)-1].DirectoryCategory.FullViewableName == "mutated" ||
				orig.DirectoryCategories[0].FullViewableName == "mutated" ||
				orig.SearchQuery == "mutated" {
				t.Error("clone aliased the original")
			}
			orig.DirectoryCategories[len(orig.DirectoryCategories)-1].SpecialEncoding = "mutated"
			if cp.DirectoryCategories[len(cp.DirectoryCategories)-1].SpecialEncoding == "mutated" {
				t.Error("original aliased the clone")
			}
			// Neither slice has room to grow into the other's array.
			if cap(cp.ResultElements) != len(cp.ResultElements) || cap(cp.DirectoryCategories) != len(cp.DirectoryCategories) {
				t.Errorf("clone caps %d and %d, lens %d and %d", cap(cp.ResultElements), cap(cp.DirectoryCategories),
					len(cp.ResultElements), len(cp.DirectoryCategories))
			}
		})
	}
}

// TestCloneDeepKeepsNilAndEmpty clones every mix of nil and empty
// slices, on both sides of searchBlock's bound: a nil slice must come
// back nil and an empty one empty, or the clone is not an equal copy,
// and neither may have room to grow into the block.
func TestCloneDeepKeepsNilAndEmpty(t *testing.T) {
	over := overBlock()
	for _, elems := range [][]ResultElement{nil, {}, over.ResultElements} {
		for _, cats := range [][]DirectoryCategory{nil, {}, over.DirectoryCategories} {
			orig := &GoogleSearchResult{SearchQuery: "q", ResultElements: elems, DirectoryCategories: cats}
			cp := orig.CloneDeep().(*GoogleSearchResult)
			if !reflect.DeepEqual(orig, cp) ||
				(cp.ResultElements == nil) != (elems == nil) || (cp.DirectoryCategories == nil) != (cats == nil) ||
				cap(cp.ResultElements) != len(elems) || cap(cp.DirectoryCategories) != len(cats) {
				t.Errorf("%d elements (nil %v) and %d categories (nil %v): clone has %#v (cap %d) and %#v (cap %d)",
					len(elems), elems == nil, len(cats), cats == nil,
					cp.ResultElements, cap(cp.ResultElements), cp.DirectoryCategories, cap(cp.DirectoryCategories))
			}
		}
	}
}

// TestCloneDeepAllocs holds the copy-out of every L1 object hit on a
// search result to one allocation, and a result past searchBlock's
// bound to the result and its two slices.
func TestCloneDeepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		orig *GoogleSearchResult
		want float64
	}{
		{"Search result", Search("clone me", 0, 10), 1},
		{"over block", overBlock(), 3},
	} {
		if got := testing.AllocsPerRun(100, func() { tc.orig.CloneDeep() }); got != tc.want {
			t.Errorf("%s: %v allocs per CloneDeep, want %v", tc.name, got, tc.want)
		}
	}
}

func TestResponseXMLSizesNearPaper(t *testing.T) {
	// Table 9 reports 520 / 5338 / 5024 bytes for the three response
	// XML messages. The simulation must land in the same regime (same
	// order of magnitude and ranking), not byte-for-byte.
	reg := typemap.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)

	sizes := map[string]int{}
	for op, result := range map[string]any{
		OpSpellingSuggestion: SpellingSuggestion("web servises cashing"),
		OpGetCachedPage:      CachedPage("http://example.com/fixed"),
		OpGoogleSearch:       Search("fixed query", 0, 10),
	} {
		doc, err := codec.EncodeResponse(Namespace, op, result)
		if err != nil {
			t.Fatal(err)
		}
		sizes[op] = len(doc)
	}
	t.Logf("response XML sizes: %v", sizes)

	if s := sizes[OpSpellingSuggestion]; s < 300 || s > 1000 {
		t.Errorf("spelling XML = %d bytes, want ≈520", s)
	}
	if s := sizes[OpGetCachedPage]; s < 4200 || s > 6500 {
		t.Errorf("cached page XML = %d bytes, want ≈5338", s)
	}
	if s := sizes[OpGoogleSearch]; s < 4000 || s > 6500 {
		t.Errorf("search XML = %d bytes, want ≈5024", s)
	}
}

func TestDispatcherEndToEnd(t *testing.T) {
	d, codec, err := NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	tr := &transport.InProcess{Handler: d}

	invoke := func(op string, params []soap.Param) any {
		t.Helper()
		call := client.NewCall(codec, tr, Endpoint, Namespace, op, "urn:GoogleSearchAction", client.Options{})
		res, err := call.Invoke(context.Background(), params...)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return res
	}

	if s, ok := invoke(OpSpellingSuggestion, SpellingParams("k", "helo wrld")).(string); !ok || s == "" {
		t.Errorf("spelling = %#v", s)
	}
	if b, ok := invoke(OpGetCachedPage, CachedPageParams("k", "http://x/")).([]byte); !ok || len(b) != cachedPageSize {
		t.Errorf("cached page type/size wrong: %T len %d", b, len(b))
	}
	r, ok := invoke(OpGoogleSearch, SearchParams("k", "golang", 0, 10, false, "", false, "")).(*GoogleSearchResult)
	if !ok {
		t.Fatalf("search result type wrong")
	}
	if !reflect.DeepEqual(r, Search("golang", 0, 10)) {
		t.Error("dispatcher result differs from generator")
	}
}

func TestFixedResponseHandler(t *testing.T) {
	h := NewFixedResponseHandler()
	tr := &transport.InProcess{Handler: h}

	reg := typemap.NewRegistry()
	if err := RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)

	call := client.NewCall(codec, tr, Endpoint, Namespace, OpGoogleSearch, "", client.Options{})
	res1, err := call.Invoke(context.Background(), SearchParams("k", "anything", 0, 10, false, "", false, "")...)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := call.Invoke(context.Background(), SearchParams("k", "something else", 0, 10, false, "", false, "")...)
	if err != nil {
		t.Fatal(err)
	}
	// Identical payloads regardless of the query: fixed responses.
	if !reflect.DeepEqual(res1, res2) {
		t.Error("fixed handler returned varying responses")
	}

	// All three operations are served.
	for _, op := range Operations {
		c := client.NewCall(codec, tr, Endpoint, Namespace, op, "", client.Options{})
		var params []soap.Param
		switch op {
		case OpSpellingSuggestion:
			params = SpellingParams("k", "x")
		case OpGetCachedPage:
			params = CachedPageParams("k", "http://x/")
		default:
			params = SearchParams("k", "x", 0, 10, false, "", false, "")
		}
		if _, err := c.Invoke(context.Background(), params...); err != nil {
			t.Errorf("%s: %v", op, err)
		}
	}
}

func TestWSDLParsesAndMatchesService(t *testing.T) {
	defs, err := wsdl.Parse([]byte(WSDL))
	if err != nil {
		t.Fatal(err)
	}
	if defs.Name != "GoogleSearch" || defs.TargetNamespace != Namespace {
		t.Errorf("defs = %s %s", defs.Name, defs.TargetNamespace)
	}
	for _, op := range Operations {
		if _, ok := defs.Operation(op); !ok {
			t.Errorf("operation %s missing from WSDL", op)
		}
	}
	in, out, err := defs.OperationIO(OpGoogleSearch)
	if err != nil {
		t.Fatal(err)
	}
	// Table 5: 6 strings, 2 ints, 2 booleans.
	var nStr, nInt, nBool int
	for _, p := range in.Parts {
		switch p.Type.Local {
		case "string":
			nStr++
		case "int":
			nInt++
		case "boolean":
			nBool++
		}
	}
	if nStr != 6 || nInt != 2 || nBool != 2 {
		t.Errorf("doGoogleSearch params: %d strings, %d ints, %d bools", nStr, nInt, nBool)
	}
	if out.Parts[0].Type.Local != "GoogleSearchResult" {
		t.Errorf("return type = %v", out.Parts[0].Type)
	}

	// Schema types resolve.
	if len(defs.Schemas) != 1 || defs.Schemas[0].TargetNamespace != Namespace {
		t.Fatalf("schemas = %+v", defs.Schemas)
	}
	gsr, ok := defs.Schemas[0].TypeByName("GoogleSearchResult")
	if !ok {
		t.Fatal("GoogleSearchResult type missing")
	}
	if len(gsr.Elements) != 11 {
		t.Errorf("schema GoogleSearchResult has %d elements, want 11", len(gsr.Elements))
	}
	loc, ok := defs.Endpoint()
	if !ok || !strings.Contains(loc, "api.google.com") {
		t.Errorf("endpoint = %q", loc)
	}

	// WSDL-driven service wiring works against the dummy dispatcher.
	d, codec, err := NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := client.NewService(defs, codec, &transport.InProcess{Handler: d}, client.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Invoke(context.Background(), OpSpellingSuggestion, SpellingParams("k", "tst")...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(string); !ok {
		t.Errorf("result = %T", res)
	}
}

func TestDispatcherMissingParamFault(t *testing.T) {
	d, codec, err := NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := codec.EncodeRequest(Namespace, OpGoogleSearch, nil)
	resp, isFault, err := d.Handle(req)
	if err != nil || !isFault {
		t.Fatalf("err=%v fault=%v", err, isFault)
	}
	msg, _ := codec.DecodeEnvelope(resp)
	if msg.Fault == nil {
		t.Error("expected fault for missing params")
	}
}
