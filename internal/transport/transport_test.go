package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPSend: a request reaches the server as a SOAP 1.1 POST. The
// SOAPAction header reads back quoted through Header.Get, under its
// canonical key, whether the request carries its header prebuilt
// (SOAPHeader) or only the action.
func TestHTTPSend(t *testing.T) {
	var gotAction, gotCT string
	var gotActions []string
	var gotBody []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAction = r.Header.Get("SOAPAction")
		gotActions = r.Header["Soapaction"]
		gotCT = r.Header.Get("Content-Type")
		buf := make([]byte, r.ContentLength)
		_, _ = r.Body.Read(buf)
		gotBody = buf
		w.Header().Set("Content-Type", "text/xml")
		_, _ = w.Write([]byte("<resp/>"))
	}))
	defer srv.Close()

	tr := &HTTP{}
	for _, header := range []http.Header{nil, SOAPHeader("urn:x#op")} {
		resp, err := tr.Send(context.Background(), &Request{Endpoint: srv.URL, SOAPAction: "urn:x#op", Header: header, Body: []byte("<req/>")})
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "<resp/>" || resp.Status != 200 {
			t.Errorf("resp = %+v", resp)
		}
		if gotAction != `"urn:x#op"` || len(gotActions) != 1 {
			t.Errorf("prebuilt %v: SOAPAction = %q (values %q)", header != nil, gotAction, gotActions)
		}
		if gotCT != "text/xml; charset=utf-8" {
			t.Errorf("Content-Type = %q", gotCT)
		}
		if string(gotBody) != "<req/>" {
			t.Errorf("body = %q", gotBody)
		}
	}
}

func TestHTTPSend500CarriesFaultBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte("<fault/>"))
	}))
	defer srv.Close()
	tr := &HTTP{}
	resp, err := tr.Send(context.Background(), &Request{Endpoint: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 || string(resp.Body) != "<fault/>" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestHTTPSendUnexpectedStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer srv.Close()
	tr := &HTTP{}
	_, err := tr.Send(context.Background(), &Request{Endpoint: srv.URL})
	var se *statusError
	if !errors.As(err, &se) || se.Status != 404 {
		t.Errorf("err = %v", err)
	}
}

func TestHTTPSendContextCancel(t *testing.T) {
	blocked := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer srv.Close()
	defer close(blocked)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tr := &HTTP{}
	if _, err := tr.Send(ctx, &Request{Endpoint: srv.URL}); err == nil {
		t.Error("expected context deadline error")
	}
}

// TestHTTPClientTimeoutCoversBody: a configured Client.Timeout still
// bounds the exchange after the headers have arrived. The server
// declares a body, sends part of it and stalls; the read fails at the
// deadline instead of waiting for the rest.
func TestHTTPClientTimeoutCoversBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		_, _ = w.Write([]byte("<partial"))
		w.(http.Flusher).Flush()
		<-r.Context().Done() // stall until the client gives up
	}))
	defer srv.Close()

	tr := &HTTP{Client: &http.Client{Timeout: 50 * time.Millisecond}}
	start := time.Now()
	_, err := tr.Send(context.Background(), &Request{Endpoint: srv.URL})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the deadline mid-body", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("gave up after %v, want ~50ms", elapsed)
	}
}

// TestHTTPRedirectNotFollowed: a 302 and a 307 come back as status
// errors, and the target they name is never requested.
func TestHTTPRedirectNotFollowed(t *testing.T) {
	var followed atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/target", func(w http.ResponseWriter, r *http.Request) {
		followed.Add(1)
		_, _ = w.Write([]byte("<moved/>"))
	})
	for _, code := range []int{http.StatusFound, http.StatusTemporaryRedirect} {
		mux.HandleFunc("/"+strconv.Itoa(code), func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, "/target", code)
		})
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, code := range []int{http.StatusFound, http.StatusTemporaryRedirect} {
		_, err := (&HTTP{}).Send(context.Background(), &Request{Endpoint: srv.URL + "/" + strconv.Itoa(code), Body: []byte("<req/>")})
		var se *statusError
		if !errors.As(err, &se) || se.Status != code {
			t.Errorf("%d: err = %v, want a status error", code, err)
		}
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("the redirect target was requested %d times", n)
	}
}

// TestHTTPDroppedConnectionRetried: a server that hijacks the
// connection and closes it without answering yields a *url.Error, as
// Client.Do did, which the retrying transport treats as transient.
func TestHTTPDroppedConnectionRetried(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		_ = conn.Close()
	}))
	defer srv.Close()

	_, err := (&HTTP{}).Send(context.Background(), &Request{Endpoint: srv.URL, Body: []byte("<req/>")})
	var ue *url.Error
	if !errors.As(err, &ue) || ue.Op != "Post" {
		t.Fatalf("err = %v, want a *url.Error from Post", err)
	}
	if !isTransient(err) {
		t.Errorf("a dropped connection is not transient: %v", err)
	}

	requests.Store(0)
	noSleep := func(context.Context, time.Duration) error { return nil }
	rt := NewRetry(&HTTP{}, RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	if _, err := rt.Send(context.Background(), &Request{Endpoint: srv.URL, Body: []byte("<req/>")}); !errors.As(err, &ue) {
		t.Errorf("retried: err = %v, want the last attempt's *url.Error", err)
	}
	if n := requests.Load(); n != 3 {
		t.Errorf("server saw %d requests over 3 attempts", n)
	}
}

func TestInProcess(t *testing.T) {
	tr := &InProcess{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("SOAPAction") == "" {
			t.Error("SOAPAction not propagated")
		}
		w.Header().Set("Cache-Control", "max-age=60")
		_, _ = w.Write([]byte("ok"))
	})}
	resp, err := tr.Send(context.Background(), &Request{Endpoint: "http://local/", SOAPAction: "a", Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "ok" || resp.Header.Get("Cache-Control") != "max-age=60" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestInProcessStatusError(t *testing.T) {
	tr := &InProcess{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	})}
	_, err := tr.Send(context.Background(), &Request{Endpoint: "http://local/"})
	var se *statusError
	if !errors.As(err, &se) || se.Status != http.StatusBadGateway {
		t.Errorf("err = %v", err)
	}
}

func TestFuncTransport(t *testing.T) {
	tr := Func(func(_ context.Context, req *Request) (*Response, error) {
		return &Response{Body: []byte(req.Endpoint), Status: 200}, nil
	})
	resp, err := tr.Send(context.Background(), &Request{Endpoint: "ep"})
	if err != nil || string(resp.Body) != "ep" {
		t.Errorf("resp = %+v, err = %v", resp, err)
	}
}

func TestParseCacheControl(t *testing.T) {
	d := parseCacheControl("public, max-age=3600")
	if !d.Public || !d.HasMaxAge || d.MaxAge != time.Hour {
		t.Errorf("d = %+v", d)
	}
	d = parseCacheControl("no-store")
	if !d.NoStore {
		t.Errorf("d = %+v", d)
	}
	d = parseCacheControl("private, no-cache, max-age=bogus")
	if !d.Private || !d.NoCache || d.HasMaxAge {
		t.Errorf("d = %+v", d)
	}
}

func TestFreshnessLifetime(t *testing.T) {
	now := time.Now()

	h := http.Header{}
	h.Set("Cache-Control", "max-age=120")
	if life, ok := FreshnessLifetime(h, now); !ok || life != 2*time.Minute {
		t.Errorf("max-age: %v %v", life, ok)
	}

	h = http.Header{}
	h.Set("Cache-Control", "no-store")
	if _, ok := FreshnessLifetime(h, now); ok {
		t.Error("no-store should forbid caching")
	}

	h = http.Header{}
	h.Set("Expires", now.Add(time.Hour).UTC().Format(http.TimeFormat))
	life, ok := FreshnessLifetime(h, now)
	if !ok || life < 59*time.Minute || life > time.Hour {
		t.Errorf("expires: %v %v", life, ok)
	}

	h = http.Header{}
	h.Set("Expires", now.Add(-time.Hour).UTC().Format(http.TimeFormat))
	if _, ok := FreshnessLifetime(h, now); ok {
		t.Error("past Expires should forbid caching")
	}

	if _, ok := FreshnessLifetime(http.Header{}, now); ok {
		t.Error("no headers give no lifetime")
	}
}

func TestNotModified(t *testing.T) {
	lastMod := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)

	r := httptest.NewRequest(http.MethodPost, "/", nil)
	r.Header.Set("If-Modified-Since", lastMod.Format(http.TimeFormat))
	if !NotModified(r, lastMod) {
		t.Error("same timestamp should be not-modified")
	}

	r.Header.Set("If-Modified-Since", lastMod.Add(-time.Hour).Format(http.TimeFormat))
	if NotModified(r, lastMod) {
		t.Error("older validator should be modified")
	}

	r.Header.Del("If-Modified-Since")
	if NotModified(r, lastMod) {
		t.Error("no header should be modified")
	}

	r.Header.Set("If-Modified-Since", "garbage")
	if NotModified(r, lastMod) {
		t.Error("bad header should be modified")
	}
}

func TestSetValidators(t *testing.T) {
	h := http.Header{}
	lm := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	SetValidators(h, lm, 90*time.Second)
	if h.Get("Last-Modified") != lm.Format(http.TimeFormat) {
		t.Errorf("Last-Modified = %q", h.Get("Last-Modified"))
	}
	if h.Get("Cache-Control") != "max-age=90" {
		t.Errorf("Cache-Control = %q", h.Get("Cache-Control"))
	}
}

func TestStatusErrorTruncation(t *testing.T) {
	long := make([]byte, 500)
	for i := range long {
		long[i] = 'x'
	}
	e := &statusError{Status: 400, Body: string(long)}
	if len(e.Error()) > 300 {
		t.Errorf("error message too long: %d", len(e.Error()))
	}
}

// TestSOAPContentTypeIsShared: setting the SOAP Content-Type allocates
// nothing, and an Add on one header leaves every other header that
// shares the value as it was.
func TestSOAPContentTypeIsShared(t *testing.T) {
	a, b := http.Header{}, http.Header{}
	SetSOAPContentType(a)
	SetSOAPContentType(b)
	a.Add("Content-Type", "application/soap+xml")
	if got := b.Values("Content-Type"); len(got) != 1 || got[0] != "text/xml; charset=utf-8" {
		t.Errorf("an Add on another header changed this one to %q", got)
	}
	if got := a.Values("Content-Type"); len(got) != 2 || got[1] != "application/soap+xml" {
		t.Errorf("Add gave %q", got)
	}
	h := make(http.Header, 1)
	if n := testing.AllocsPerRun(100, func() { SetSOAPContentType(h) }); n != 0 {
		t.Errorf("SetSOAPContentType allocates %v, want 0", n)
	}
}
