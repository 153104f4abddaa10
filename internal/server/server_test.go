package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/soap"
	"repro/internal/typemap"
)

const ns = "urn:Echo"

type pair struct {
	Key   string
	Value string
}

func newDispatcher(t *testing.T) (*Dispatcher, *soap.Codec) {
	t.Helper()
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: ns, Local: "Pair"}, pair{}); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	d := NewDispatcher(codec, ns)
	d.Register("echo", func(params []soap.Param) (any, error) {
		if len(params) == 0 {
			return nil, errors.New("echo requires one parameter")
		}
		return params[0].Value, nil
	})
	d.Register("makePair", func(params []soap.Param) (any, error) {
		k, _ := params[0].Value.(string)
		v, _ := params[1].Value.(string)
		return &pair{Key: k, Value: v}, nil
	})
	return d, codec
}

func TestDispatcherRoundTrip(t *testing.T) {
	d, codec := newDispatcher(t)
	req, err := codec.EncodeRequest(ns, "makePair", []soap.Param{
		{Name: "k", Value: "lang"},
		{Name: "v", Value: "go"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, isFault, err := d.Handle(req)
	if err != nil || isFault {
		t.Fatalf("handle: %v fault=%v", err, isFault)
	}
	msg, err := codec.DecodeEnvelope(resp)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Wrapper.Local != "makePairResponse" {
		t.Errorf("wrapper = %v", msg.Wrapper)
	}
	p, ok := msg.Result().(*pair)
	if !ok || p.Key != "lang" || p.Value != "go" {
		t.Errorf("result = %#v", msg.Result())
	}
}

func TestDispatcherUnknownOperation(t *testing.T) {
	d, codec := newDispatcher(t)
	req, _ := codec.EncodeRequest(ns, "nope", nil)
	resp, isFault, err := d.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if !isFault {
		t.Fatal("expected fault")
	}
	msg, err := codec.DecodeEnvelope(resp)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Fault == nil || !strings.Contains(msg.Fault.String, "unknown operation") {
		t.Errorf("fault = %+v", msg.Fault)
	}
	if msg.Fault.Code != "soapenv:Client" {
		t.Errorf("code = %q", msg.Fault.Code)
	}
}

func TestDispatcherHandlerError(t *testing.T) {
	d, codec := newDispatcher(t)
	req, _ := codec.EncodeRequest(ns, "echo", nil)
	resp, isFault, err := d.Handle(req)
	if err != nil || !isFault {
		t.Fatalf("err=%v fault=%v", err, isFault)
	}
	msg, _ := codec.DecodeEnvelope(resp)
	if msg.Fault == nil || msg.Fault.Code != "soapenv:Server" {
		t.Errorf("fault = %+v", msg.Fault)
	}
}

func TestDispatcherMalformedRequest(t *testing.T) {
	d, codec := newDispatcher(t)
	resp, isFault, err := d.Handle([]byte("this is not xml"))
	if err != nil || !isFault {
		t.Fatalf("err=%v fault=%v", err, isFault)
	}
	msg, _ := codec.DecodeEnvelope(resp)
	if msg.Fault == nil || !strings.Contains(msg.Fault.String, "malformed") {
		t.Errorf("fault = %+v", msg.Fault)
	}
}

func TestServeHTTP(t *testing.T) {
	d, codec := newDispatcher(t)
	srv := httptest.NewServer(d)
	defer srv.Close()

	req, _ := codec.EncodeRequest(ns, "echo", []soap.Param{{Name: "v", Value: "hi"}})
	resp, err := http.Post(srv.URL, "text/xml", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	msg, err := codec.DecodeEnvelope(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if msg.Result() != "hi" {
		t.Errorf("result = %#v", msg.Result())
	}
}

func TestServeHTTPFaultStatus500(t *testing.T) {
	d, codec := newDispatcher(t)
	srv := httptest.NewServer(d)
	defer srv.Close()
	req, _ := codec.EncodeRequest(ns, "doesNotExist", nil)
	resp, err := http.Post(srv.URL, "text/xml", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
}

func TestServeHTTPMethodNotAllowed(t *testing.T) {
	d, _ := newDispatcher(t)
	srv := httptest.NewServer(d)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestServeHTTPValidators(t *testing.T) {
	d, codec := newDispatcher(t)
	lastMod := time.Now().Add(-time.Hour).Truncate(time.Second)
	d.SetValidatorPolicy(lastMod, time.Minute)
	srv := httptest.NewServer(d)
	defer srv.Close()

	reqBody, _ := codec.EncodeRequest(ns, "echo", []soap.Param{{Name: "v", Value: "x"}})

	// Plain request gets validators stamped.
	resp, err := http.Post(srv.URL, "text/xml", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.Header.Get("Last-Modified") == "" || resp.Header.Get("Cache-Control") != "max-age=60" {
		t.Errorf("validators missing: %+v", resp.Header)
	}

	// Conditional request with a fresh validator gets 304.
	req, _ := http.NewRequest(http.MethodPost, srv.URL, bytes.NewReader(reqBody))
	req.Header.Set("If-Modified-Since", time.Now().UTC().Format(http.TimeFormat))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("status = %d, want 304", resp2.StatusCode)
	}
}

func TestDispatcherConcurrentRegisterAndHandle(t *testing.T) {
	d, codec := newDispatcher(t)
	req, _ := codec.EncodeRequest(ns, "echo", []soap.Param{{Name: "v", Value: "x"}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d.Register(fmt.Sprintf("op%d", i), func([]soap.Param) (any, error) { return nil, nil })
		}
	}()
	for i := 0; i < 200; i++ {
		if _, _, err := d.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// TestSetSOAPHeadersAllocs: stamping a response's SOAP headers makes
// only the Content-Length value and its slice; the Content-Type is one
// shared value.
func TestSetSOAPHeadersAllocs(t *testing.T) {
	w := httptest.NewRecorder()
	if n := testing.AllocsPerRun(100, func() { setSOAPHeaders(w, 5024, time.Time{}, 0) }); n > 2 {
		t.Errorf("setSOAPHeaders allocates %v, want <= 2", n)
	}
	if got := w.Header().Get("Content-Type"); got != "text/xml; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
}
