package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultify"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
)

// quoteBackend builds the quote dispatcher pieces for tests that need
// to interpose their own transport between client and server.
func quoteBackend(t *testing.T) (*soap.Codec, *server.Dispatcher, *callCounter) {
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
		return &quote{Symbol: sym, Price: 101.25}, nil
	})
	return codec, disp, counter
}

// respondWith builds a transport answering every call with a fixed
// body.
func respondWith(body []byte) transport.Transport {
	return transport.Func(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		return &transport.Response{Body: body, Status: 200}, nil
	})
}

// encodeQuoteResponse builds a well-formed getQuote response envelope.
func encodeQuoteResponse(t *testing.T, codec *soap.Codec) []byte {
	t.Helper()
	body, err := codec.EncodeResponse(testNS, "getQuote", &quote{Symbol: "OK", Price: 5})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newQuoteCodec(t *testing.T) *soap.Codec {
	t.Helper()
	call, codec, _ := newFixture(t, client.Options{})
	_ = call
	return codec
}

func TestDecodeTruncatedEnvelopeFails(t *testing.T) {
	codec := newQuoteCodec(t)
	body := encodeQuoteResponse(t, codec)
	for _, cut := range []int{len(body) / 2, len(body) - 1, 1} {
		tr := respondWith(body[:cut])
		call := client.NewCall(codec, tr, "ep", testNS, "getQuote", "", client.Options{})
		if _, err := call.Invoke(context.Background()); err == nil {
			t.Errorf("truncation at %d bytes: want decode error", cut)
		}
	}
}

func TestDecodeGarbledEnvelopeFails(t *testing.T) {
	codec := newQuoteCodec(t)
	body := encodeQuoteResponse(t, codec)
	garbled := make([]byte, len(body))
	copy(garbled, body)
	for i, b := range garbled {
		if b == '<' || b == '>' {
			garbled[i] ^= 0x01
		}
	}
	call := client.NewCall(codec, respondWith(garbled), "ep", testNS, "getQuote", "", client.Options{})
	if _, err := call.Invoke(context.Background()); err == nil {
		t.Fatal("want decode error for garbled envelope")
	}
}

func TestDecodeEmptyBodyFails(t *testing.T) {
	codec := newQuoteCodec(t)
	call := client.NewCall(codec, respondWith(nil), "ep", testNS, "getQuote", "", client.Options{})
	if _, err := call.Invoke(context.Background()); err == nil {
		t.Fatal("want decode error for empty body")
	}
}

func TestRetryOptionAbsorbsFlakyTransport(t *testing.T) {
	// End to end: Options.Retry wraps the transport, so a backend that
	// fails twice then recovers yields a successful invocation.
	codec, disp, counter := quoteBackend(t)
	faulty := faultify.New(&transport.InProcess{Handler: disp}, faultify.Config{Script: faultify.FailN(2)})
	call := client.NewCall(codec, faulty, "http://inproc/quote", testNS, "getQuote", "", client.Options{
		Retry: &transport.RetryPolicy{MaxAttempts: 3, Sleep: func(ctx context.Context, d time.Duration) error { return nil }},
	})
	res, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.(*quote).Symbol != "GOOG" {
		t.Errorf("result = %#v", res)
	}
	if counter.n != 1 {
		t.Errorf("backend served %d calls, want 1", counter.n)
	}
	if s := faulty.Stats(); s.Calls != 3 || s.Failures != 2 {
		t.Errorf("fault stats = %+v", s)
	}
}

func TestRetryOptionDoesNotRetryFaults(t *testing.T) {
	// SOAP faults are application answers: the retrying transport never
	// sees them as errors, so the backend is invoked exactly once.
	call, _, counter := newFixture(t, client.Options{
		Retry: &transport.RetryPolicy{MaxAttempts: 5},
	})
	_, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "FAIL"})
	var f *soap.Fault
	if !errors.As(err, &f) || !strings.Contains(f.String, "no such symbol") {
		t.Fatalf("err = %v, want fault", err)
	}
	if counter.n != 1 {
		t.Errorf("backend calls = %d, want 1 (faults must not retry)", counter.n)
	}
}
