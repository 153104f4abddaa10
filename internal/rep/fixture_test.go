package rep

import (
	"context"
	"testing"

	"repro/internal/client"
	"repro/internal/sax"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// The fixture mirrors core's test fixture: the same registered types
// and fabricated invocation contexts, so the representation tests read
// identically on either side of the package boundary.

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

func newFixture(t testing.TB) *fixture {
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
func (f *fixture) ictx(t testing.TB, op string, result any, params ...soap.Param) *client.Context {
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
