// Package googleapi simulates the Google SOAP Search API (beta) that
// the paper's experiments call: doSpellingSuggestion, doGetCachedPage,
// and doGoogleSearch (Table 1). The real service was retired in 2006,
// so this package substitutes a faithful synthetic implementation: the
// same WSDL shape, the same application-object structure (Table 5 and
// Section 5.1), and deterministic generated payloads whose XML and
// object sizes are calibrated to the paper's Table 9.
//
// The three operations were chosen in the paper for their return-value
// classes, which the simulation preserves:
//
//   - doSpellingSuggestion → string                (small and simple)
//   - doGetCachedPage      → []byte (base64)       (large and simple)
//   - doGoogleSearch       → *GoogleSearchResult   (large and complex)
package googleapi

import (
	"repro/internal/typemap"
)

// Namespace is the target namespace of the Google Web APIs WSDL.
const Namespace = "urn:GoogleSearch"

// Endpoint is the historical service endpoint, used as the default
// cache-key endpoint component.
const Endpoint = "http://api.google.com/search/beta2"

// Operation names.
const (
	OpSpellingSuggestion = "doSpellingSuggestion"
	OpGetCachedPage      = "doGetCachedPage"
	OpGoogleSearch       = "doGoogleSearch"
)

// Operations lists the three operations of the service. All three are
// cacheable retrieval operations (Section 3.2).
var Operations = []string{OpSpellingSuggestion, OpGetCachedPage, OpGoogleSearch}

// DirectoryCategory is an Open Directory category attached to results.
// Two string fields, exactly as in the paper's description.
//
//lint:ignore api rep's TestSelectorCensus, soap's TestMemoUnrepeatedShapesCostNothing and client's TestInvokeResolvesAxisMultiRef build one
type DirectoryCategory struct {
	FullViewableName string
	SpecialEncoding  string
}

// CloneDeep implements typemap.Cloner. DirectoryCategory has only
// immutable fields, so a value copy is a deep copy.
func (d *DirectoryCategory) CloneDeep() any {
	out := *d
	return &out
}

// ResultElement is a single search hit: nine simple-typed fields plus
// one DirectoryCategory, matching the paper's ten-field description
// (Section 5.1). The Language field rounds the published WSDL's nine
// elements up to the paper's count of ten.
//
//lint:ignore api rep's TestSelectorCensus builds one
type ResultElement struct {
	Summary                   string
	URL                       string `xml:"URL"`
	Snippet                   string
	Title                     string
	CachedSize                string
	RelatedInformationPresent bool
	HostName                  string
	DirectoryCategory         DirectoryCategory
	DirectoryTitle            string
	Language                  string
}

// CloneDeep implements typemap.Cloner.
func (r *ResultElement) CloneDeep() any {
	out := *r
	return &out
}

// GoogleSearchResult encapsulates the complete results of a search:
// nine simple fields, an array of ResultElement, and an array of
// DirectoryCategory — eleven fields, matching Section 5.1.
type GoogleSearchResult struct {
	DocumentFiltering          bool
	SearchComments             string
	EstimatedTotalResultsCount int
	EstimateIsExact            bool
	ResultElements             []ResultElement
	SearchQuery                string
	StartIndex                 int
	EndIndex                   int
	SearchTips                 string
	DirectoryCategories        []DirectoryCategory
	SearchTime                 float64
}

// CloneDeep implements typemap.Cloner: the deep clone method the paper
// says a WSDL compiler should generate for its classes (Section
// 4.2.3-C). A result no larger than Search makes is copied into one
// searchBlock, slices and all; a larger one takes three allocations.
// Either way a nil slice stays nil and an empty one stays empty.
func (g *GoogleSearchResult) CloneDeep() any {
	if len(g.ResultElements) <= searchResultCount && len(g.DirectoryCategories) <= 1 {
		blk := new(searchBlock)
		blk.result = *g
		if g.ResultElements != nil {
			n := copy(blk.elems[:], g.ResultElements)
			blk.result.ResultElements = blk.elems[:n:n]
		}
		if g.DirectoryCategories != nil {
			n := copy(blk.cats[:], g.DirectoryCategories)
			blk.result.DirectoryCategories = blk.cats[:n:n]
		}
		return &blk.result
	}
	out := *g
	if g.ResultElements != nil {
		out.ResultElements = make([]ResultElement, len(g.ResultElements))
		copy(out.ResultElements, g.ResultElements)
	}
	if g.DirectoryCategories != nil {
		out.DirectoryCategories = make([]DirectoryCategory, len(g.DirectoryCategories))
		copy(out.DirectoryCategories, g.DirectoryCategories)
	}
	return &out
}

// Compile-time checks that the generated types implement Cloner.
var (
	_ typemap.Cloner = (*GoogleSearchResult)(nil)
	_ typemap.Cloner = (*ResultElement)(nil)
	_ typemap.Cloner = (*DirectoryCategory)(nil)
)

// RegisterTypes registers the service's complex types in a registry, as
// the WSDL compiler's generated deployment descriptor would.
func RegisterTypes(reg *typemap.Registry) error {
	for _, b := range []struct {
		local string
		proto any
	}{
		{"DirectoryCategory", DirectoryCategory{}},
		{"ResultElement", ResultElement{}},
		{"GoogleSearchResult", GoogleSearchResult{}},
	} {
		if err := reg.Register(typemap.QName{Space: Namespace, Local: b.local}, b.proto); err != nil {
			return err
		}
	}
	return nil
}
