// Package server is a SOAP 1.1 rpc/encoded service dispatcher: it
// parses request envelopes, routes to registered operation handlers,
// and serializes responses or faults. The dummy Google Web services and
// the portal scenario's back ends run on it.
package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/soap"
	"repro/internal/transport"
)

// OpHandler implements one operation: it receives the decoded request
// parameters and returns the response application object.
type OpHandler func(params []soap.Param) (any, error)

// Dispatcher routes SOAP requests to operation handlers.
type Dispatcher struct {
	codec    *soap.Codec
	targetNS string

	mu  sync.RWMutex
	ops map[string]OpHandler

	// LastModified, when set, stamps HTTP responses with a
	// Last-Modified header and honors If-Modified-Since (the HTTP 1.1
	// consistency mechanism from paper Section 3.2).
	lastModified time.Time
	ttl          time.Duration
}

// NewDispatcher returns a Dispatcher serving operations in targetNS.
func NewDispatcher(codec *soap.Codec, targetNS string) *Dispatcher {
	return &Dispatcher{
		codec:    codec,
		targetNS: targetNS,
		ops:      make(map[string]OpHandler),
	}
}

// Register binds an operation name to its handler.
func (d *Dispatcher) Register(operation string, h OpHandler) {
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
	msg, err := d.codec.DecodeEnvelope(request)
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
// responses are encoded straight into the response writer
// (soap.Codec.EncodeResponseTo): the envelope is built fully before the
// first byte goes out, so encode errors still produce a 500.
func (d *Dispatcher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, lastMod, ttl, done := soapPreamble(w, r, d)
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
	setSOAPHeaders(w, lastMod, ttl)
	if n, err := d.codec.EncodeResponseTo(w, d.targetNS, op, result); err != nil && n == 0 {
		// Build failed before any byte was written; the writer is still
		// fresh enough for an error status. (A write error with n > 0
		// means the client is gone — nothing to do.)
		http.Error(w, fmt.Sprintf("server: encode response for %s: %v", op, err), http.StatusInternalServerError)
	}
}

// soapPreamble performs the HTTP boilerplate shared by every SOAP
// endpoint: the POST-only check, the If-Modified-Since validator
// answer, and the body read. done reports that the response is already
// written; otherwise the caller serves body and stamps the returned
// validator policy on its response.
func soapPreamble(w http.ResponseWriter, r *http.Request, d *Dispatcher) (body []byte, lastMod time.Time, ttl time.Duration, done bool) {
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
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return nil, lastMod, ttl, true
	}
	return body, lastMod, ttl, false
}

// setSOAPHeaders stamps the SOAP content type and the validator policy
// on a response about to be written.
func setSOAPHeaders(w http.ResponseWriter, lastMod time.Time, ttl time.Duration) {
	w.Header().Set("Content-Type", `text/xml; charset=utf-8`)
	if !lastMod.IsZero() || ttl > 0 {
		transport.SetValidators(w.Header(), lastMod, ttl)
	}
}

// writeSOAPResponse writes a handled envelope (or error) with the SOAP
// status conventions.
func writeSOAPResponse(w http.ResponseWriter, lastMod time.Time, ttl time.Duration, resp []byte, isFault bool, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	setSOAPHeaders(w, lastMod, ttl)
	if isFault {
		w.WriteHeader(http.StatusInternalServerError)
	}
	_, _ = w.Write(resp)
}
