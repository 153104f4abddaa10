package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
)

const testNS = "urn:Quote"

type quote struct {
	Symbol string
	Price  float64
}

// newFixture wires a client Call directly to an in-process dispatcher.
func newFixture(t *testing.T, opts client.Options) (*client.Call, *soap.Codec, *callCounter) {
	t.Helper()
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: testNS, Local: "Quote"}, quote{}); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	disp := server.NewDispatcher(codec, testNS)
	counter := &callCounter{}
	disp.Register("getQuote", func(params []soap.Param) (any, error) {
		counter.n++
		sym, _ := params[0].Value.(string)
		if sym == "FAIL" {
			return nil, errors.New("no such symbol")
		}
		return &quote{Symbol: sym, Price: 101.25}, nil
	})
	tr := &transport.InProcess{Handler: disp}
	call := client.NewCall(codec, tr, "http://inproc/quote", testNS, "getQuote", testNS+"#getQuote", opts)
	return call, codec, counter
}

type callCounter struct{ n int }

func TestInvokeEndToEnd(t *testing.T) {
	call, _, counter := newFixture(t, client.Options{})
	res, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	if err != nil {
		t.Fatal(err)
	}
	q, ok := res.(*quote)
	if !ok || q.Symbol != "GOOG" || q.Price != 101.25 {
		t.Errorf("result = %#v", res)
	}
	if counter.n != 1 {
		t.Errorf("server calls = %d", counter.n)
	}
}

func TestInvokeFaultBecomesError(t *testing.T) {
	call, _, _ := newFixture(t, client.Options{})
	_, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "FAIL"})
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *soap.Fault", err)
	}
	if !strings.Contains(f.String, "no such symbol") {
		t.Errorf("fault = %+v", f)
	}
}

func TestInvokeContextExposesXML(t *testing.T) {
	call, _, _ := newFixture(t, client.Options{})
	ictx, err := call.InvokeContext(context.Background(), soap.Param{Name: "symbol", Value: "IBM"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ictx.RequestXML), "getQuote") {
		t.Error("RequestXML not captured")
	}
	if !strings.Contains(string(ictx.ResponseXML), "getQuoteResponse") {
		t.Error("ResponseXML not captured")
	}
	if ictx.ResponseEvents != nil {
		t.Error("the pivot recorded events")
	}
	if ictx.CacheHit {
		t.Error("CacheHit set without a cache")
	}
}

// TestRecordEvents: the deprecated Options.RecordEvents records
// nothing, and Context.Events records the response once, then returns
// that recording, which decodes to the invocation's result.
func TestRecordEvents(t *testing.T) {
	call, codec, _ := newFixture(t, client.Options{RecordEvents: true})
	ictx, err := call.InvokeContext(context.Background(), soap.Param{Name: "symbol", Value: "IBM"})
	if err != nil {
		t.Fatal(err)
	}
	if ictx.ResponseEvents != nil {
		t.Error("the deprecated Options.RecordEvents still records events")
	}
	events, err := ictx.Events()
	if err != nil || len(events) == 0 {
		t.Fatalf("Events() = %d events, %v; want a recording of ResponseXML", len(events), err)
	}
	if again, _ := ictx.Events(); &again[0] != &events[0] || len(ictx.ResponseEvents) != len(events) {
		t.Error("a second Events() call recorded again; the first recording must be kept on the Context")
	}
	msg, err := codec.DecodeEnvelopeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if q := msg.Result().(*quote); q.Symbol != "IBM" {
		t.Errorf("replayed result = %+v", q)
	}
}

func TestHandlerChainOrderAndShortCircuit(t *testing.T) {
	var order []string
	outer := client.HandlerFunc(func(ictx *client.Context, next client.Invoker) error {
		order = append(order, "outer-pre")
		err := next(ictx)
		order = append(order, "outer-post")
		return err
	})
	short := client.HandlerFunc(func(ictx *client.Context, _ client.Invoker) error {
		order = append(order, "short")
		ictx.Result = &quote{Symbol: "CACHED"}
		ictx.CacheHit = true
		return nil
	})
	call, _, counter := newFixture(t, client.Options{Handlers: []client.Handler{outer, short}})
	res, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	if err != nil {
		t.Fatal(err)
	}
	if res.(*quote).Symbol != "CACHED" {
		t.Errorf("result = %#v", res)
	}
	if counter.n != 0 {
		t.Error("pivot reached despite short-circuit")
	}
	want := []string{"outer-pre", "short", "outer-post"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("order = %v", order)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	boom := errors.New("handler boom")
	bad := client.HandlerFunc(func(*client.Context, client.Invoker) error { return boom })
	call, _, _ := newFixture(t, client.Options{Handlers: []client.Handler{bad}})
	if _, err := call.Invoke(context.Background()); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestBreakerIgnoresSOAPFaults(t *testing.T) {
	// A fault is an application answer from a live backend: a backend
	// that answers only with faults must never open the breaker.
	b := client.NewBreaker(client.BreakerConfig{Window: 3, MinSamples: 3})
	call, _, _ := newFixture(t, client.Options{Breaker: b})
	for i := 0; i < 6; i++ {
		_, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "FAIL"})
		var f *soap.Fault
		if !errors.As(err, &f) {
			t.Fatalf("err = %v, want fault", err)
		}
	}
	if s := b.State(call.Endpoint()); s != client.BreakerClosed {
		t.Fatalf("state after 6 faults = %v, want closed", s)
	}
}

func TestTransportErrorPropagates(t *testing.T) {
	reg := typemap.NewRegistry()
	codec := soap.NewCodec(reg)
	tr := transport.Func(func(context.Context, *transport.Request) (*transport.Response, error) {
		return nil, errors.New("network down")
	})
	call := client.NewCall(codec, tr, "ep", testNS, "op", "", client.Options{})
	if _, err := call.Invoke(context.Background()); err == nil || !strings.Contains(err.Error(), "network down") {
		t.Errorf("err = %v", err)
	}
}

const quoteWSDL = `<?xml version="1.0"?>
<wsdl:definitions name="Quote" targetNamespace="urn:Quote"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="urn:Quote">
  <wsdl:message name="getQuoteIn"><wsdl:part name="symbol" type="xsd:string"/></wsdl:message>
  <wsdl:message name="getQuoteOut"><wsdl:part name="return" type="tns:Quote"/></wsdl:message>
  <wsdl:portType name="QuotePort">
    <wsdl:operation name="getQuote">
      <wsdl:input message="tns:getQuoteIn"/>
      <wsdl:output message="tns:getQuoteOut"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="QuoteBinding" type="tns:QuotePort">
    <soap:binding style="rpc" transport="http://schemas.xmlsoap.org/soap/http"/>
    <wsdl:operation name="getQuote">
      <soap:operation soapAction="urn:Quote#getQuote"/>
      <wsdl:input><soap:body use="encoded" namespace="urn:Quote"/></wsdl:input>
      <wsdl:output><soap:body use="encoded" namespace="urn:Quote"/></wsdl:output>
    </wsdl:operation>
  </wsdl:binding>
  <wsdl:service name="QuoteService">
    <wsdl:port name="QuotePort" binding="tns:QuoteBinding">
      <soap:address location="http://example.com/quote"/>
    </wsdl:port>
  </wsdl:service>
</wsdl:definitions>`

func TestServiceFromWSDL(t *testing.T) {
	defs, err := wsdl.Parse([]byte(quoteWSDL))
	if err != nil {
		t.Fatal(err)
	}
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: testNS, Local: "Quote"}, quote{}); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	disp := server.NewDispatcher(codec, testNS)
	disp.Register("getQuote", func(params []soap.Param) (any, error) {
		return &quote{Symbol: params[0].Value.(string), Price: 7}, nil
	})
	svc, err := client.NewService(defs, codec, &transport.InProcess{Handler: disp}, client.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}

	call, err := svc.Call("getQuote")
	if err != nil {
		t.Fatal(err)
	}
	if call.Endpoint() != "http://example.com/quote" {
		t.Errorf("endpoint = %q", call.Endpoint())
	}

	res, err := svc.Invoke(context.Background(), "getQuote", soap.Param{Name: "symbol", Value: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if res.(*quote).Symbol != "X" {
		t.Errorf("result = %#v", res)
	}

	if _, err := svc.Call("unknownOp"); err == nil {
		t.Error("expected error for unknown operation")
	}
}

func TestServiceEndpointOverride(t *testing.T) {
	defs, err := wsdl.Parse([]byte(quoteWSDL))
	if err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(typemap.NewRegistry())
	svc, err := client.NewService(defs, codec, transport.Func(nil), client.ServiceConfig{Endpoint: "http://override/"})
	if err != nil {
		t.Fatal(err)
	}
	call, err := svc.Call("getQuote")
	if err != nil {
		t.Fatal(err)
	}
	if call.Endpoint() != "http://override/" {
		t.Errorf("endpoint = %q", call.Endpoint())
	}
}

func TestCallAccessors(t *testing.T) {
	call, codec, _ := newFixture(t, client.Options{})
	if call.Codec() != codec {
		t.Error("Codec accessor broken")
	}
	if call.Operation() != "getQuote" {
		t.Error("Operation accessor broken")
	}
}

func TestServiceDefinitionsAccessor(t *testing.T) {
	defs, err := wsdl.Parse([]byte(quoteWSDL))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := client.NewService(defs, soap.NewCodec(typemap.NewRegistry()), transport.Func(nil), client.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Definitions() != defs {
		t.Error("Definitions accessor broken")
	}
}

// TestAcceptStreamPropagates: Options.AcceptStream must reach the
// invocation context, where representation Applicable gates read it.
func TestAcceptStreamPropagates(t *testing.T) {
	call, _, _ := newFixture(t, client.Options{AcceptStream: true})
	ictx, err := call.InvokeContext(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	if err != nil {
		t.Fatal(err)
	}
	if !ictx.AcceptStream {
		t.Error("AcceptStream not copied onto the invocation context")
	}
	plain, _, _ := newFixture(t, client.Options{})
	ictx2, err := plain.InvokeContext(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	if err != nil {
		t.Fatal(err)
	}
	if ictx2.AcceptStream {
		t.Error("AcceptStream set without the option")
	}
}

// TestContextStreamFallsBackToResponseXML: on a miss (or any
// invocation that reached the transport) Stream adapts the captured
// envelope, so stream consumers get bytes whether or not a streaming
// representation served them.
func TestContextStreamFallsBackToResponseXML(t *testing.T) {
	call, _, _ := newFixture(t, client.Options{AcceptStream: true})
	ictx, err := call.InvokeContext(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	if err != nil {
		t.Fatal(err)
	}
	wt, ok := ictx.Stream()
	if !ok {
		t.Fatal("no stream for an invocation that captured ResponseXML")
	}
	var buf bytes.Buffer
	n, err := wt.WriteTo(&buf)
	if err != nil || n != int64(len(ictx.ResponseXML)) {
		t.Fatalf("WriteTo: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), ictx.ResponseXML) {
		t.Error("streamed bytes diverge from the captured envelope")
	}
}

// streamedResult is a stand-in for a streaming representation's
// payload placed in Result by a cache hit.
type streamedResult struct{ data string }

func (s *streamedResult) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, s.data)
	return int64(n), err
}

// TestContextStreamPrefersStreamedResult: when a streaming
// representation put a replayable payload in Result, Stream returns it
// rather than re-adapting ResponseXML.
func TestContextStreamPrefersStreamedResult(t *testing.T) {
	ictx := &client.Context{Result: &streamedResult{data: "payload"}, ResponseXML: []byte("envelope")}
	wt, ok := ictx.Stream()
	if !ok {
		t.Fatal("no stream")
	}
	var buf bytes.Buffer
	if _, err := wt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "payload" {
		t.Errorf("streamed %q, want the Result payload", buf.String())
	}
}

// TestContextStreamAbsent: an object-representation hit carries
// neither a WriterTo result nor envelope bytes; Stream must say so
// instead of fabricating an empty stream.
func TestContextStreamAbsent(t *testing.T) {
	ictx := &client.Context{Result: &quote{Symbol: "GOOG"}}
	if _, ok := ictx.Stream(); ok {
		t.Error("Stream reported ok with no streamable source")
	}
}

// TestContextSize pins the size of client.Context. Every hit, object or
// stream, allocates one, so its size class is part of every hit's
// cost: 216 bytes is the 224 B class on a 64-bit platform. A field that
// pushes it past 216 moves every hit to the 240 B class; the change
// that adds it says so and raises this bound and the cost ratchet's
// rows together.
func TestContextSize(t *testing.T) {
	if n := unsafe.Sizeof(client.Context{}); n > 216 {
		t.Errorf("client.Context is %d bytes, want ≤ 216 (the 224 B size class)", n)
	}
}
