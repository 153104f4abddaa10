// Package server is a SOAP 1.1 rpc/encoded service dispatcher: it
// parses request envelopes, routes to registered operation handlers,
// and serializes responses or faults. The dummy Google Web services and
// the portal scenario's back ends run on it.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/soap"
	"repro/internal/transport"
)

// opHandler implements one operation: it receives the decoded request
// parameters and returns the response application object.
type opHandler func(params []soap.Param) (any, error)

// Dispatcher routes SOAP requests to operation handlers.
type Dispatcher struct {
	codec    *soap.Codec
	targetNS string
	// memo decodes requests of a shape seen before without the parser
	// (soap.EnvelopeMemo, DESIGN.md §5l). It learns only the shapes of
	// registered operations (serves), so stray requests cannot fill it.
	memo *soap.EnvelopeMemo

	mu  sync.RWMutex
	ops map[string]opHandler

	// LastModified, when set, stamps HTTP responses with a
	// Last-Modified header and honors If-Modified-Since (the HTTP 1.1
	// consistency mechanism from paper Section 3.2).
	lastModified time.Time
	ttl          time.Duration
}

// NewDispatcher returns a Dispatcher serving operations in targetNS.
func NewDispatcher(codec *soap.Codec, targetNS string) *Dispatcher {
	d := &Dispatcher{
		codec:    codec,
		targetNS: targetNS,
		ops:      make(map[string]opHandler),
	}
	d.memo = codec.NewEnvelopeMemo(d.serves)
	return d
}

// serves reports whether operation is registered.
func (d *Dispatcher) serves(operation string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.ops[operation]
	return ok
}

// Register binds an operation name to its handler.
func (d *Dispatcher) Register(operation string, h opHandler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops[operation] = h
}

// SetValidatorPolicy enables HTTP cache validators on responses: a
// Last-Modified timestamp and a Cache-Control max-age of ttl.
func (d *Dispatcher) SetValidatorPolicy(lastModified time.Time, ttl time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastModified = lastModified
	d.ttl = ttl
}

// Handle processes one request envelope and returns the response
// envelope. Handler errors become fault envelopes, not Go errors; the
// error return is reserved for encoding failures.
//
//lint:ignore api dummygoogle's TestCacheByteIdentity compares cached hits with it
func (d *Dispatcher) Handle(request []byte) ([]byte, bool, error) {
	op, result, fault := d.dispatch(request)
	if fault != nil {
		body, err := d.codec.EncodeFault(fault)
		if err != nil {
			return nil, true, fmt.Errorf("server: encode fault: %w", err)
		}
		return body, true, nil
	}
	resp, err := d.codec.EncodeResponse(d.targetNS, op, result)
	if err != nil {
		return nil, false, fmt.Errorf("server: encode response for %s: %w", op, err)
	}
	return resp, false, nil
}

// dispatch decodes the request envelope and runs the operation
// handler, returning the operation and its result application object,
// or the fault to serialize. Factored from Handle so the HTTP path can
// stream the encoded response without a []byte round trip.
func (d *Dispatcher) dispatch(request []byte) (op string, result any, fault *soap.Fault) {
	msg, err := d.memo.Decode(request)
	if err != nil {
		return "", nil, &soap.Fault{Code: "soapenv:Client", String: fmt.Sprintf("malformed request: %v", err)}
	}
	if msg.Wrapper.Local == "" {
		return "", nil, &soap.Fault{Code: "soapenv:Client", String: "request has no operation element"}
	}
	op = msg.Wrapper.Local
	d.mu.RLock()
	h, ok := d.ops[op]
	d.mu.RUnlock()
	if !ok {
		return op, nil, &soap.Fault{Code: "soapenv:Client", String: fmt.Sprintf("unknown operation %q", op)}
	}
	result, err = h(msg.Params)
	if err != nil {
		return op, nil, &soap.Fault{Code: "soapenv:Server", String: err.Error()}
	}
	return op, result, nil
}

// ServeHTTP implements http.Handler: POST text/xml in, envelope out.
// Faults are returned with HTTP 500 per SOAP 1.1 over HTTP. Successful
// responses are written straight from the encoder's pooled buffer
// (soap.Codec.WriteResponse): the envelope is built fully before the
// first byte goes out, so encode errors still produce a 500, and its
// length is known, so every response carries a Content-Length.
func (d *Dispatcher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	buf := getBodyBuffer()
	defer putBodyBuffer(buf)
	body, lastMod, ttl, done := soapPreamble(w, r, d, buf)
	if done {
		return
	}
	op, result, fault := d.dispatch(body)
	if fault != nil {
		resp, err := d.codec.EncodeFault(fault)
		if err != nil {
			err = fmt.Errorf("server: encode fault: %w", err)
		}
		writeSOAPResponse(w, lastMod, ttl, resp, true, err)
		return
	}
	err := d.codec.WriteResponse(d.targetNS, op, result, func(env []byte) {
		writeSOAPResponse(w, lastMod, ttl, env, false, nil)
	})
	if err != nil {
		// Nothing was written: the writer is still fresh enough for an
		// error status.
		http.Error(w, fmt.Sprintf("server: encode response for %s: %v", op, err), http.StatusInternalServerError)
	}
}

// maxRequestBytes bounds a request body, as the client bounds a
// response body: generous for SOAP, but finite, so no request can make
// the server hold more than this in memory for it.
const maxRequestBytes = transport.DefaultMaxResponseBytes

// bodyBuffers holds request body buffers between requests. A request
// body is read into one and dies with the request: the decoders copy
// what they keep (the memo its hole text, the full decode its strings)
// and the response cache keeps only a digest of it.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer bodyBuffers keeps; a larger body
// is read into a buffer of its own, which the collector takes.
const maxPooledBody = 64 << 10

func getBodyBuffer() *[]byte { return bodyBuffers.Get().(*[]byte) }

// putBodyBuffer returns buf to the pool once nothing of the request it
// held is in use, unless it outgrew maxPooledBody.
func putBodyBuffer(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyBuffers.Put(buf)
	}
}

// soapPreamble performs the HTTP boilerplate shared by every SOAP
// endpoint: the POST-only check, the If-Modified-Since validator
// answer, and the body read, into *buf. done reports that the response
// is already written; otherwise the caller serves body and stamps the
// returned validator policy on its response. body lives in *buf, so
// the caller must be done with it before the buffer goes back to the
// pool.
func soapPreamble(w http.ResponseWriter, r *http.Request, d *Dispatcher, buf *[]byte) (body []byte, lastMod time.Time, ttl time.Duration, done bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return nil, lastMod, 0, true
	}
	d.mu.RLock()
	lastMod, ttl = d.lastModified, d.ttl
	d.mu.RUnlock()
	if !lastMod.IsZero() && transport.NotModified(r, lastMod) {
		// Per RFC 9111 a 304 carries the validators so the client can
		// refresh its entry's lifetime.
		transport.SetValidators(w.Header(), lastMod, ttl)
		w.WriteHeader(http.StatusNotModified)
		return nil, lastMod, ttl, true
	}
	// The request's Content-Length sizes the read, and a body past
	// maxRequestBytes, declared or streamed, is refused.
	body, err := transport.AppendBody((*buf)[:0], r.Body, r.ContentLength, maxRequestBytes)
	// A body read to its end and closed spares net/http the discard
	// read it makes after the handler for a request body left open.
	// Swapping r.Body for a wrapper would bring that read back.
	_ = r.Body.Close()
	if err != nil {
		// Declared here, tooLarge goes to the heap (errors.As takes its
		// address) only when a read fails.
		var tooLarge *transport.ResponseTooLargeError
		if errors.As(err, &tooLarge) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "read body", http.StatusBadRequest)
		}
		return nil, lastMod, ttl, true
	}
	*buf = body
	return body, lastMod, ttl, false
}

// setSOAPHeaders stamps the SOAP content type, the body's length and
// the validator policy on a response about to be written.
func setSOAPHeaders(w http.ResponseWriter, n int, lastMod time.Time, ttl time.Duration) {
	h := w.Header()
	transport.SetSOAPContentType(h)
	h.Set("Content-Length", strconv.Itoa(n))
	if !lastMod.IsZero() || ttl > 0 {
		transport.SetValidators(h, lastMod, ttl)
	}
}

// writeSOAPResponse writes a handled envelope (or error) with the SOAP
// status conventions.
func writeSOAPResponse(w http.ResponseWriter, lastMod time.Time, ttl time.Duration, resp []byte, isFault bool, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	setSOAPHeaders(w, len(resp), lastMod, ttl)
	if isFault {
		w.WriteHeader(http.StatusInternalServerError)
	}
	_, _ = w.Write(resp)
}
