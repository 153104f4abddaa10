// Package transport moves SOAP messages between client and server. It
// provides an HTTP 1.1 transport (the binding the paper's middleware
// uses), an in-process transport for benchmarks that must exclude
// network cost, and the HTTP cache-validator utilities (Cache-Control,
// Expires, If-Modified-Since / 304) the paper points to as the
// standard, orthogonal consistency mechanism (Section 3.2).
//
// HTTP.Send hands each request straight to an http.RoundTripper (the
// configured client's Transport, or http.DefaultTransport) rather than
// to http.Client.Do, which would copy the request's header and fork
// the request under a deadline on every call. Send bounds the exchange
// itself, body read included, with one context deadline, and wraps a
// failed round trip in a *url.Error as Client.Do does. Redirects are
// not followed: SOAP 1.1's HTTP binding defines none, and Client.Do
// would have re-sent a 301 or 302 POST as a bodiless GET. A 3xx comes
// back as a status error like any other status that carries no
// envelope.
package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Request is a transport-level SOAP request.
type Request struct {
	// Endpoint is the target URL.
	Endpoint string
	// SOAPAction is the SOAP 1.1 action (unquoted). Send reads it only
	// to build a header for a request without one.
	SOAPAction string
	// Body is the request envelope.
	Body []byte
	// Header, when non-nil, is the request's complete header: what
	// SOAPHeader builds, plus any extra header (the cache's
	// revalidation path adds If-Modified-Since, paper Section 3.2).
	// Send puts it on the request as it is. It is read-only: a client
	// shares one across all its requests, so neither the transport nor
	// a handler behind InProcess may write to it.
	Header http.Header
}

// Response is a transport-level reply.
type Response struct {
	// Body is the SOAP envelope (possibly a fault envelope). Empty for
	// 304 Not Modified replies.
	Body []byte
	// Status is the HTTP status code (200 for in-process transports).
	Status int
	// Header carries response headers; cache consistency validators
	// (Cache-Control, Last-Modified, Expires) live here.
	Header http.Header
}

// NotModified reports whether the response is a 304 validator answer:
// the cached representation is still fresh and no body was sent.
func (r *Response) NotModified() bool { return r.Status == http.StatusNotModified }

// Transport sends a SOAP request and returns the response envelope.
type Transport interface {
	Send(ctx context.Context, req *Request) (*Response, error)
}

// statusError reports a non-2xx, non-fault HTTP response.
type statusError struct {
	Status int
	Body   string
}

// Error implements the error interface.
func (e *statusError) Error() string {
	return fmt.Sprintf("transport: http status %d: %s", e.Status, truncate(e.Body, 200))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// DefaultMaxResponseBytes bounds response reads when MaxResponseBytes
// is zero. Generous for SOAP payloads, but finite: a misbehaving
// backend cannot exhaust client memory.
const DefaultMaxResponseBytes = 64 << 20 // 64 MiB

// DefaultTimeout bounds a whole HTTP exchange when no client and no
// per-transport timeout is configured, so a dead backend fails rather
// than hangs (the request context can still impose a tighter deadline).
const DefaultTimeout = 30 * time.Second

// ResponseTooLargeError reports a response body exceeding the
// transport's MaxResponseBytes limit.
type ResponseTooLargeError struct {
	Limit int64
}

// Error implements the error interface.
func (e *ResponseTooLargeError) Error() string {
	return fmt.Sprintf("transport: response body exceeds %d-byte limit", e.Limit)
}

// maxPresize caps how much AppendBody allocates on the strength of a
// declared Content-Length alone, before the bytes arrive.
const maxPresize = 1 << 20

// AppendBody reads a message body under a size limit and appends it to
// dst, returning the extended slice: dst nil reads the body into a new
// slice, and a caller that reuses dst's memory passes dst[:0]. max 0
// applies DefaultMaxResponseBytes, negative max disables the bound;
// both count the body's bytes alone. declared is the sender's
// Content-Length, negative when unknown (a chunked body).
//
// A declared length makes room for the body up front, so a body
// arrives in one allocation instead of a chain of doublings (in none
// when dst has the room), but never more than min(declared, max, 1 MiB)
// before the bytes are there: a body past that grows as an undeclared
// one does, so a hostile header cannot make the reader allocate what
// the sender never sends. A declared length over max fails at once with
// ResponseTooLargeError, and a body shorter than declared fails with
// io.ErrUnexpectedEOF. On error it returns nil.
func AppendBody(dst []byte, r io.Reader, declared, max int64) ([]byte, error) {
	if max == 0 {
		max = DefaultMaxResponseBytes
	}
	if max > 0 && declared > max {
		return nil, &ResponseTooLargeError{Limit: max}
	}
	room := 512 // io.ReadAll's first buffer
	if declared >= 0 {
		room = int(min(declared, maxPresize))
	}
	b := dst
	if cap(b)-len(b) < room {
		b = make([]byte, len(dst), len(dst)+room)
		copy(b, dst)
	}
	start := len(b)
	for {
		n := int64(len(b) - start) // body bytes so far
		if len(b) == cap(b) {
			if n == declared {
				// Exactly the declared length: a zero-length read asks
				// for the EOF without growing the buffer for it.
				if _, err := r.Read(b[len(b):]); err == io.EOF {
					return b, nil
				}
			}
			b = append(b, 0)[:len(b)]
		}
		p := b[len(b):cap(b)]
		if left := max + 1 - n; max > 0 && int64(len(p)) > left {
			p = p[:left] // one byte past max is enough to refuse the body
		}
		m, err := r.Read(p)
		b = b[:len(b)+m]
		n += int64(m)
		if max > 0 && n > max {
			return nil, &ResponseTooLargeError{Limit: max}
		}
		if err == io.EOF {
			if declared >= 0 && n < declared {
				return nil, io.ErrUnexpectedEOF
			}
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// HTTP is a Transport over net/http. The zero value sends through
// http.DefaultTransport, times out after DefaultTimeout and bounds
// response bodies at DefaultMaxResponseBytes.
type HTTP struct {
	// Client, when non-nil, supplies the round tripper (its Transport;
	// nil means http.DefaultTransport) and, when positive, the timeout
	// (its Timeout). Nothing else of it is used: Send does not call
	// Client.Do, so neither CheckRedirect nor Jar applies.
	Client *http.Client
	// Timeout bounds the whole exchange, body read included, when
	// Client sets none; zero means DefaultTimeout.
	Timeout time.Duration
	// MaxResponseBytes bounds the response body read. Zero means
	// DefaultMaxResponseBytes; negative means unlimited.
	MaxResponseBytes int64
	// Obs, when non-nil, counts transport.bytes_sent /
	// transport.bytes_received envelope bytes. Nil-safe; leaving it nil
	// costs nothing.
	Obs *obs.Registry
}

var _ Transport = (*HTTP)(nil)

// Send implements Transport. Per SOAP 1.1 over HTTP, the request is a
// POST with Content-Type text/xml and a SOAPAction header. 200 and 500
// responses carry envelopes (500 carries the fault); 304 answers a
// conditional request with no body.
func (t *HTTP) Send(ctx context.Context, treq *Request) (*Response, error) {
	rt, timeout := http.DefaultTransport, t.Timeout
	if c := t.Client; c != nil {
		if c.Transport != nil {
			rt = c.Transport
		}
		if c.Timeout > 0 {
			timeout = c.Timeout
		}
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	// Cancelled on return, after the body read: the bound covers the
	// whole exchange, as Client.Timeout does.
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, treq.Endpoint, bytes.NewReader(treq.Body))
	if err != nil {
		return nil, fmt.Errorf("transport: build request: %w", err)
	}
	req.Header = requestHeader(treq)
	t.Obs.Add("transport.bytes_sent", int64(len(treq.Body)))
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", &url.Error{Op: "Post", URL: req.URL.Redacted(), Err: err})
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := AppendBody(nil, resp.Body, resp.ContentLength, t.MaxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("transport: read response: %w", err)
	}
	t.Obs.Add("transport.bytes_received", int64(len(body)))
	if !acceptableStatus(resp.StatusCode) {
		return nil, &statusError{Status: resp.StatusCode, Body: string(body)}
	}
	return &Response{Body: body, Status: resp.StatusCode, Header: resp.Header}, nil
}

// acceptableStatus reports statuses that carry SOAP-level meaning.
func acceptableStatus(status int) bool {
	switch status {
	case http.StatusOK, http.StatusInternalServerError, http.StatusNotModified:
		return true
	}
	return false
}

// Func adapts a function to the Transport interface.
//
//lint:ignore api client's TestTransportErrorPropagates and faultify's okTransport script transports with it
type Func func(ctx context.Context, req *Request) (*Response, error)

var _ Transport = (Func)(nil)

// Send implements Transport.
func (f Func) Send(ctx context.Context, req *Request) (*Response, error) {
	return f(ctx, req)
}

// InProcess dispatches requests directly to an http.Handler without a
// network, preserving HTTP semantics (headers, status codes).
type InProcess struct {
	Handler http.Handler
	// MaxResponseBytes bounds the response body, with the same semantics
	// as HTTP.MaxResponseBytes: zero means DefaultMaxResponseBytes,
	// negative means unlimited.
	MaxResponseBytes int64
	// Obs, when non-nil, counts transport.bytes_sent /
	// transport.bytes_received envelope bytes, as HTTP.Obs does.
	Obs *obs.Registry
}

var _ Transport = (*InProcess)(nil)

// Send implements Transport.
func (t *InProcess) Send(ctx context.Context, treq *Request) (*Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, treq.Endpoint, bytes.NewReader(treq.Body))
	if err != nil {
		return nil, fmt.Errorf("transport: build request: %w", err)
	}
	req.Header = requestHeader(treq)
	t.Obs.Add("transport.bytes_sent", int64(len(treq.Body)))
	rw := &bufferResponseWriter{header: make(http.Header), status: http.StatusOK}
	t.Handler.ServeHTTP(rw, req)
	t.Obs.Add("transport.bytes_received", int64(rw.buf.Len()))
	if max := t.MaxResponseBytes; max >= 0 {
		if max == 0 {
			max = DefaultMaxResponseBytes
		}
		if int64(rw.buf.Len()) > max {
			return nil, fmt.Errorf("transport: read response: %w", &ResponseTooLargeError{Limit: max})
		}
	}
	if !acceptableStatus(rw.status) {
		return nil, &statusError{Status: rw.status, Body: rw.buf.String()}
	}
	return &Response{Body: rw.buf.Bytes(), Status: rw.status, Header: rw.header}, nil
}

// bufferResponseWriter is a minimal in-memory http.ResponseWriter.
type bufferResponseWriter struct {
	header http.Header
	buf    bytes.Buffer
	status int
}

var _ http.ResponseWriter = (*bufferResponseWriter)(nil)

func (w *bufferResponseWriter) Header() http.Header { return w.header }

func (w *bufferResponseWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *bufferResponseWriter) WriteHeader(status int) { w.status = status }

// cacheDirectives is a parsed Cache-Control header.
type cacheDirectives struct {
	NoStore   bool
	NoCache   bool
	Private   bool
	Public    bool
	MaxAge    time.Duration
	HasMaxAge bool
}

// parseCacheControl parses a Cache-Control header value.
func parseCacheControl(v string) cacheDirectives {
	var d cacheDirectives
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		lower := strings.ToLower(part)
		switch {
		case lower == "no-store":
			d.NoStore = true
		case lower == "no-cache":
			d.NoCache = true
		case lower == "private":
			d.Private = true
		case lower == "public":
			d.Public = true
		case strings.HasPrefix(lower, "max-age="):
			secs, err := strconv.Atoi(strings.TrimPrefix(lower, "max-age="))
			if err == nil && secs >= 0 {
				d.MaxAge = time.Duration(secs) * time.Second
				d.HasMaxAge = true
			}
		}
	}
	return d
}

// FreshnessLifetime derives how long a response may be served from
// cache, from its headers: Cache-Control max-age wins over Expires.
// A max-age lifetime is reduced by the Age header — time the response
// already spent in upstream caches (RFC 9111 §4.2.3); Expires is an
// absolute time, so Age does not apply to it. ok is false when the
// headers do not permit caching, give no lifetime, or the response's
// remaining lifetime is already spent.
func FreshnessLifetime(h http.Header, now time.Time) (time.Duration, bool) {
	if cc := h.Get("Cache-Control"); cc != "" {
		d := parseCacheControl(cc)
		if d.NoStore || d.NoCache {
			return 0, false
		}
		if d.HasMaxAge {
			lifetime := d.MaxAge - responseAge(h)
			if lifetime <= 0 {
				return 0, false
			}
			return lifetime, true
		}
	}
	if exp := h.Get("Expires"); exp != "" {
		t, err := http.ParseTime(exp)
		if err == nil {
			if lifetime := t.Sub(now); lifetime > 0 {
				return lifetime, true
			}
			return 0, false
		}
	}
	return 0, false
}

// responseAge reads the Age response header (non-negative seconds the
// response spent in upstream caches); malformed or absent means zero.
func responseAge(h http.Header) time.Duration {
	v := strings.TrimSpace(h.Get("Age"))
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// NotModified reports whether a request bearing If-Modified-Since
// should receive 304 given the resource's last modification time.
// Granularity is one second, as in HTTP dates.
func NotModified(r *http.Request, lastModified time.Time) bool {
	ims := r.Header.Get("If-Modified-Since")
	if ims == "" {
		return false
	}
	t, err := http.ParseTime(ims)
	if err != nil {
		return false
	}
	return !lastModified.Truncate(time.Second).After(t)
}

// soapContentType is the Content-Type value of every SOAP request and
// response. Headers share it, so it has length equal to capacity: an Add
// on one header copies it instead of writing into the others.
var soapContentType = []string{`text/xml; charset=utf-8`}

// SetSOAPContentType sets h's Content-Type to the SOAP 1.1 text/xml
// type. It allocates nothing, where Header.Set makes a one-element
// slice per call.
func SetSOAPContentType(h http.Header) { h["Content-Type"] = soapContentType }

// SOAPHeader returns the header of a SOAP 1.1 request for action: the
// text/xml Content-Type and the action quoted, as SOAP 1.1 requires,
// under the key Header.Set would canonicalize SOAPAction to, so the
// bytes on the wire are the same. Each value slice has length equal to
// capacity (see soapContentType). A client builds it once and hands it
// to every request in Request.Header.
func SOAPHeader(action string) http.Header {
	return http.Header{"Content-Type": soapContentType, "Soapaction": {`"` + action + `"`}}
}

// requestHeader is treq's header, built from its action only when the
// request carries none.
func requestHeader(treq *Request) http.Header {
	if treq.Header != nil {
		return treq.Header
	}
	return SOAPHeader(treq.SOAPAction)
}

// SetValidators stamps a response with Last-Modified and Cache-Control
// max-age headers, the server side of the HTTP consistency mechanism.
func SetValidators(h http.Header, lastModified time.Time, ttl time.Duration) {
	if !lastModified.IsZero() {
		h.Set("Last-Modified", lastModified.UTC().Format(http.TimeFormat))
	}
	if ttl > 0 {
		h.Set("Cache-Control", "max-age="+strconv.Itoa(int(ttl/time.Second)))
	}
}
