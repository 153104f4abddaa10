// Code generated by wsdlgen from WSDL "GoogleSearch". DO NOT EDIT.

// Package googlegen contains the generated types and client for the
// GoogleSearch service (target namespace urn:GoogleSearch).
package googlegen

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
)

// TargetNamespace is the service's XML namespace.
const TargetNamespace = "urn:GoogleSearch"

// DirectoryCategory is generated from the schema type {urn:GoogleSearch}DirectoryCategory.
type DirectoryCategory struct {
	FullViewableName string
	SpecialEncoding  string
}

var _ typemap.Cloner = (*DirectoryCategory)(nil)

// CloneDeep implements typemap.Cloner with a deep copy; the cache's
// copy-by-clone representation relies on it.
func (v *DirectoryCategory) CloneDeep() any {
	out := *v
	return &out
}

// GoogleSearchResult is generated from the schema type {urn:GoogleSearch}GoogleSearchResult.
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

var _ typemap.Cloner = (*GoogleSearchResult)(nil)

// CloneDeep implements typemap.Cloner with a deep copy; the cache's
// copy-by-clone representation relies on it.
func (v *GoogleSearchResult) CloneDeep() any {
	out := *v
	out.ResultElements = slices.Clone(v.ResultElements)
	out.DirectoryCategories = slices.Clone(v.DirectoryCategories)
	return &out
}

// ResultElement is generated from the schema type {urn:GoogleSearch}ResultElement.
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

var _ typemap.Cloner = (*ResultElement)(nil)

// CloneDeep implements typemap.Cloner with a deep copy; the cache's
// copy-by-clone representation relies on it.
func (v *ResultElement) CloneDeep() any {
	out := *v
	return &out
}

// RegisterTypes binds the generated types to their XML names in a
// typemap registry, as the service's deployment descriptor would.
func RegisterTypes(reg *typemap.Registry) error {
	for _, binding := range []struct {
		local string
		proto any
	}{
		{"DirectoryCategory", DirectoryCategory{}},
		{"GoogleSearchResult", GoogleSearchResult{}},
		{"ResultElement", ResultElement{}},
	} {
		if err := reg.Register(typemap.QName{Space: TargetNamespace, Local: binding.local}, binding.proto); err != nil {
			return err
		}
	}
	return nil
}

// GoogleSearchClient is the typed client for the GoogleSearch service.
type GoogleSearchClient struct {
	svc *client.Service
}

// NewGoogleSearchClient builds the typed client. The codec's registry must have
// the generated types registered (RegisterTypes).
func NewGoogleSearchClient(defs *wsdl.Definitions, codec *soap.Codec, tr transport.Transport, cfg client.ServiceConfig) (*GoogleSearchClient, error) {
	svc, err := client.NewService(defs, codec, tr, cfg)
	if err != nil {
		return nil, err
	}
	return &GoogleSearchClient{svc: svc}, nil
}

// DoGetCachedPage invokes the doGetCachedPage operation.
func (c *GoogleSearchClient) DoGetCachedPage(ctx context.Context, key string, url string) ([]byte, error) {
	res, err := c.svc.Invoke(ctx, "doGetCachedPage",
		soap.Param{Name: "key", Value: key},
		soap.Param{Name: "url", Value: url},
	)
	if err != nil {
		var zero []byte
		return zero, err
	}
	out, ok := res.([]byte)
	if !ok {
		var zero []byte
		return zero, fmt.Errorf("doGetCachedPage: unexpected result type %T", res)
	}
	return out, nil
}

// DoGetItem invokes the doGetItem operation.
func (c *GoogleSearchClient) DoGetItem(ctx context.Context, key string) (string, error) {
	res, err := c.svc.Invoke(ctx, "doGetItem",
		soap.Param{Name: "key", Value: key},
	)
	if err != nil {
		var zero string
		return zero, err
	}
	out, ok := res.(string)
	if !ok {
		var zero string
		return zero, fmt.Errorf("doGetItem: unexpected result type %T", res)
	}
	return out, nil
}

// DoGoogleSearch invokes the doGoogleSearch operation.
func (c *GoogleSearchClient) DoGoogleSearch(ctx context.Context, key string, q string, start int, maxResults int, filter bool, restrict string, safeSearch bool, lr string, ie string, oe string) (*GoogleSearchResult, error) {
	res, err := c.svc.Invoke(ctx, "doGoogleSearch",
		soap.Param{Name: "key", Value: key},
		soap.Param{Name: "q", Value: q},
		soap.Param{Name: "start", Value: start},
		soap.Param{Name: "maxResults", Value: maxResults},
		soap.Param{Name: "filter", Value: filter},
		soap.Param{Name: "restrict", Value: restrict},
		soap.Param{Name: "safeSearch", Value: safeSearch},
		soap.Param{Name: "lr", Value: lr},
		soap.Param{Name: "ie", Value: ie},
		soap.Param{Name: "oe", Value: oe},
	)
	if err != nil {
		var zero *GoogleSearchResult
		return zero, err
	}
	out, ok := res.(*GoogleSearchResult)
	if !ok {
		var zero *GoogleSearchResult
		return zero, fmt.Errorf("doGoogleSearch: unexpected result type %T", res)
	}
	return out, nil
}

// DoListItems invokes the doListItems operation.
func (c *GoogleSearchClient) DoListItems(ctx context.Context) (string, error) {
	res, err := c.svc.Invoke(ctx, "doListItems")
	if err != nil {
		var zero string
		return zero, err
	}
	out, ok := res.(string)
	if !ok {
		var zero string
		return zero, fmt.Errorf("doListItems: unexpected result type %T", res)
	}
	return out, nil
}

// DoPutItem invokes the doPutItem operation.
func (c *GoogleSearchClient) DoPutItem(ctx context.Context, key string, value string) (string, error) {
	res, err := c.svc.Invoke(ctx, "doPutItem",
		soap.Param{Name: "key", Value: key},
		soap.Param{Name: "value", Value: value},
	)
	if err != nil {
		var zero string
		return zero, err
	}
	out, ok := res.(string)
	if !ok {
		var zero string
		return zero, fmt.Errorf("doPutItem: unexpected result type %T", res)
	}
	return out, nil
}

// DoSpellingSuggestion invokes the doSpellingSuggestion operation.
func (c *GoogleSearchClient) DoSpellingSuggestion(ctx context.Context, key string, phrase string) (string, error) {
	res, err := c.svc.Invoke(ctx, "doSpellingSuggestion",
		soap.Param{Name: "key", Value: key},
		soap.Param{Name: "phrase", Value: phrase},
	)
	if err != nil {
		var zero string
		return zero, err
	}
	out, ok := res.(string)
	if !ok {
		var zero string
		return zero, fmt.Errorf("doSpellingSuggestion: unexpected result type %T", res)
	}
	return out, nil
}
