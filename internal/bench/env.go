// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5): the
// micro-benchmarks for cache-key generation (Table 6), cached-data
// retrieval (Table 7), and memory sizes (Tables 8 and 9), plus the
// portal-site scenario sweeps (Figures 3 and 4). The cmd/wscache-bench
// and cmd/portalbench binaries and the repository-level Go benchmarks
// are thin wrappers over this package.
package bench

import (
	"context"
	"fmt"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/sax"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// opFixture is one Google operation prepared for measurement: its
// request parameters and a fully captured invocation (result object,
// response XML, recorded SAX events) as the client middleware would
// hold them at cache-fill time.
type opFixture struct {
	// Op is the operation name.
	Op string
	// Label is the short column head used in the paper's tables.
	Label string
	// Params are the request parameters (Table 5 shapes).
	Params []soap.Param
	// Ctx is the fabricated post-invocation context.
	Ctx *client.Context
}

// env bundles the registry, codec and the three operation fixtures.
type env struct {
	Reg   *typemap.Registry
	Codec *soap.Codec
	Ops   []opFixture
}

// NewEnv builds the measurement environment: the three Google
// operations with deterministic synthetic responses.
func NewEnv() (*env, error) {
	reg := typemap.NewRegistry()
	if err := googleapi.RegisterTypes(reg); err != nil {
		return nil, err
	}
	codec := soap.NewCodec(reg)
	e := &env{Reg: reg, Codec: codec}

	fixtures := []struct {
		op     string
		label  string
		params []soap.Param
		result any
	}{
		{
			op:     googleapi.OpSpellingSuggestion,
			label:  "Spelling Suggestion",
			params: googleapi.SpellingParams("benchmark-key", "web servises cashing"),
			result: googleapi.SpellingSuggestion("web servises cashing"),
		},
		{
			op:     googleapi.OpGetCachedPage,
			label:  "Cached Page",
			params: googleapi.CachedPageParams("benchmark-key", "http://example.com/fixed"),
			result: googleapi.CachedPage("http://example.com/fixed"),
		},
		{
			op:     googleapi.OpGoogleSearch,
			label:  "Google Search",
			params: googleapi.SearchParams("benchmark-key", "fixed query", 0, 10, false, "", false, ""),
			result: googleapi.Search("fixed query", 0, 10),
		},
	}
	for _, f := range fixtures {
		ictx, err := e.fabricate(f.op, f.params, f.result)
		if err != nil {
			return nil, fmt.Errorf("bench: fixture %s: %w", f.op, err)
		}
		e.Ops = append(e.Ops, opFixture{Op: f.op, Label: f.label, Params: f.params, Ctx: ictx})
	}
	return e, nil
}

// fabricate builds a post-invocation context exactly as the pivot
// handler populates one.
func (e *env) fabricate(op string, params []soap.Param, result any) (*client.Context, error) {
	respXML, err := e.Codec.EncodeResponse(googleapi.Namespace, op, result)
	if err != nil {
		return nil, err
	}
	events, err := sax.Record(respXML)
	if err != nil {
		return nil, err
	}
	return &client.Context{
		//lint:ignore ctxflow fabricated post-invocation record for benchmarks; there is no live call whose context it could inherit
		Ctx:            context.Background(),
		Endpoint:       googleapi.Endpoint,
		Namespace:      googleapi.Namespace,
		Operation:      op,
		Params:         params,
		RequestXML:     nil,
		ResponseXML:    respXML,
		ResponseEvents: events,
		Result:         result,
	}, nil
}

// Fixture returns the fixture for an operation name.
func (e *env) Fixture(op string) (*opFixture, bool) {
	for i := range e.Ops {
		if e.Ops[i].Op == op {
			return &e.Ops[i], true
		}
	}
	return nil, false
}
