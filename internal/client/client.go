// Package client is the Web services client middleware: the analog of
// the Apache Axis client engine the paper prototypes on. An invocation
// flows through a chain of handlers ending in the pivot handler, which
// serializes the request application objects to a SOAP envelope, sends
// it over a Transport, parses the response, and deserializes the
// application objects (Figure 1 of the paper).
//
// The response cache installs as an ordinary Handler in front of the
// pivot: on a hit it populates the result and stops the chain, so
// serialization, network, parsing and deserialization are all skipped
// to the extent the chosen cache representation allows.
package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sax"
	"repro/internal/soap"
	"repro/internal/transport"
)

// Context carries one invocation through the handler chain.
type Context struct {
	// Ctx is the caller's context, honored by the transport.
	Ctx context.Context

	// Request identification.
	Endpoint   string
	Namespace  string
	Operation  string
	SOAPAction string

	// Params are the request application objects.
	Params []soap.Param

	// RequestHeader carries extra transport headers. The cache's
	// revalidation path sets If-Modified-Since here before letting the
	// invocation proceed.
	RequestHeader http.Header

	// RequestXML is set once the request has been serialized.
	RequestXML []byte

	// ResponseXML is the raw response envelope (set by the pivot).
	ResponseXML []byte

	// ResponseHeader holds the transport response headers (set by the
	// pivot): Cache-Control and Last-Modified validators live here.
	ResponseHeader http.Header

	// NotModified reports that the server answered a conditional
	// request with 304: the response has no body and the caller's
	// cached representation is still valid.
	NotModified bool

	// ResponseEvents is the recorded SAX event sequence of the response,
	// set by the first call to Events. The pivot never records.
	ResponseEvents []sax.Event

	// AcceptStream declares that this invocation's consumer can handle
	// Result being a byte-stream payload (an io.WriterTo such as
	// rep.Streamed) instead of a decoded application object. Caching
	// handlers use it to gate the streaming representations ("raw",
	// "xmltmpl"), whose hits replay serialized bytes rather than
	// rebuilding objects. Copied from Options.AcceptStream by Invoke.
	AcceptStream bool

	// Result is the response application object — or, when AcceptStream
	// is set and a streaming representation served the hit, an
	// io.WriterTo over the serialized response. Use Stream to consume
	// either form uniformly.
	Result any

	// CacheHit reports that a cache handler satisfied the invocation.
	CacheHit bool

	// ServedStale reports that the result is a TTL-expired cache entry
	// served in degraded mode because the backend invocation failed
	// (core.Config.StaleIfError). Always accompanied by CacheHit.
	ServedStale bool
}

// Stream returns the response as a replayable byte stream: the Result
// itself when a streaming representation served it, otherwise a
// single-write adapter over ResponseXML. ok is false when neither is
// available (e.g. a hit from an object representation, which never
// carries envelope bytes).
func (ictx *Context) Stream() (io.WriterTo, bool) {
	if wt, ok := ictx.Result.(io.WriterTo); ok {
		return wt, true
	}
	if len(ictx.ResponseXML) > 0 {
		return bytesStream(ictx.ResponseXML), true
	}
	return nil, false
}

// Events returns the response's SAX event sequence: a recording of
// ResponseXML made on the first call and kept in ResponseEvents, so
// every store that reads events during one fill shares a single
// recording. It returns nil and no error when the invocation captured
// no response.
func (ictx *Context) Events() ([]sax.Event, error) {
	if len(ictx.ResponseEvents) > 0 || len(ictx.ResponseXML) == 0 {
		return ictx.ResponseEvents, nil
	}
	events, err := sax.Record(ictx.ResponseXML)
	if err != nil {
		return nil, err
	}
	ictx.ResponseEvents = events
	return events, nil
}

// bytesStream adapts a raw envelope to io.WriterTo.
type bytesStream []byte

// WriteTo implements io.WriterTo.
//
//lint:hotpath
func (b bytesStream) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// Len returns the stream's byte length (mirrors rep.Streamed).
func (b bytesStream) Len() int { return len(b) }

// Handler processes an invocation. Implementations call next to
// continue the chain, or populate ictx.Result and return without
// calling next to short-circuit (as the response cache does on a hit).
type Handler interface {
	HandleInvoke(ictx *Context, next Invoker) error
}

// Invoker continues the handler chain.
type Invoker func(*Context) error

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ictx *Context, next Invoker) error

var _ Handler = (HandlerFunc)(nil)

// HandleInvoke implements Handler.
func (f HandlerFunc) HandleInvoke(ictx *Context, next Invoker) error {
	return f(ictx, next)
}

// Options configure a Call.
type Options struct {
	// RecordEvents does nothing.
	//
	// Deprecated: the pivot never records the response's SAX events; a
	// store that reads them records ResponseXML once per fill through
	// Context.Events. The field stays only while the referee benchmark
	// still sets it, and goes with that benchmark's next update.
	RecordEvents bool

	// AcceptStream marks every invocation of this Call as stream-
	// capable (Context.AcceptStream): cache hits may yield an
	// io.WriterTo Result from a streaming representation instead of a
	// decoded object. Set it only when the consumer relays bytes
	// (renders, proxies, re-serves) rather than computing on the
	// decoded result.
	AcceptStream bool

	// Handlers is the chain installed in front of the pivot, outermost
	// first.
	Handlers []Handler

	// Retry, when non-nil, wraps the Call's transport in a retrying
	// transport (per-attempt timeouts, exponential backoff with full
	// jitter, transient-vs-permanent classification).
	Retry *transport.RetryPolicy

	// Breaker, when non-nil, installs a circuit breaker as the
	// innermost handler — between Handlers and the pivot — so cache
	// hits are still served while the breaker is open, and a caching
	// handler sees the breaker's rejection as an ordinary backend error
	// it can degrade from (stale-on-error).
	Breaker *Breaker

	// Obs, when non-nil, records per-handler and pivot stage latencies
	// (handler, serialize, send, parse) into the registry. Share the
	// registry with the cache's core.Config.Obs for one coherent
	// /debug/wscache snapshot. nil disables stage timing for this Call.
	Obs *obs.Registry

	// Tracer, when non-nil, receives an OnStage callback per recorded
	// stage. Stage timing is on when either Obs or Tracer is set;
	// otherwise the invocation path reads no clock.
	Tracer obs.Tracer

	// Clock overrides time.Now for stage timing, for tests.
	Clock func() time.Time
}

// Call invokes one operation of a remote service.
type Call struct {
	codec      *soap.Codec
	tr         transport.Transport
	endpoint   string
	namespace  string
	operation  string
	soapAction string
	opts       Options

	// handlerNames label per-handler stage series, resolved once from
	// the handler types. timed reports whether stage recording is on;
	// when false the invocation path never reads the clock.
	handlerNames []string
	timed        bool
	now          func() time.Time

	// chain is the handler chain composed once at construction: every
	// closure captures only per-Call invariants (handler, successor,
	// receiver), so one chain serves all invocations, including
	// concurrent ones. Building it per call cost 2 allocs on every
	// cached hit (DESIGN.md §5i's alloc hunt).
	chain Invoker

	// memo decodes a response whose shape this Call has seen before
	// without the parser (soap.EnvelopeMemo, DESIGN.md §5l).
	memo *soap.EnvelopeMemo
}

// NewCall builds a Call. codec must have all complex types of the
// operation registered.
func NewCall(codec *soap.Codec, tr transport.Transport, endpoint, namespace, operation, soapAction string, opts Options) *Call {
	if opts.Retry != nil {
		tr = transport.NewRetry(tr, *opts.Retry)
	}
	names := make([]string, len(opts.Handlers))
	for i, h := range opts.Handlers {
		names[i] = fmt.Sprintf("%T", h)
	}
	c := &Call{
		codec:        codec,
		tr:           tr,
		endpoint:     endpoint,
		namespace:    namespace,
		operation:    operation,
		soapAction:   soapAction,
		opts:         opts,
		handlerNames: names,
		timed:        opts.Obs != nil || opts.Tracer != nil,
		now:          clock.Or(opts.Clock),
		memo:         codec.NewEnvelopeMemo(nil),
	}
	c.chain = c.buildChain()
	return c
}

// observe records one stage into the registry and tracer; callers gate
// on c.timed.
func (c *Call) observe(op string, stage obs.Stage, rep string, d time.Duration, err error) {
	c.opts.Obs.Stage(stage, rep, d, err)
	if c.opts.Tracer != nil {
		c.opts.Tracer.OnStage(op, stage, rep, d, err)
	}
}

// Codec returns the call's codec (used by cache value stores that need
// the deserializer).
func (c *Call) Codec() *soap.Codec { return c.codec }

// Operation returns the operation name.
func (c *Call) Operation() string { return c.operation }

// Endpoint returns the target endpoint URL.
func (c *Call) Endpoint() string { return c.endpoint }

// newContext builds the per-invocation context.
func (c *Call) newContext(ctx context.Context, params []soap.Param) *Context {
	return &Context{
		Ctx:          ctx,
		Endpoint:     c.endpoint,
		Namespace:    c.namespace,
		Operation:    c.operation,
		SOAPAction:   c.soapAction,
		Params:       params,
		AcceptStream: c.opts.AcceptStream,
	}
}

// Invoke performs the call with the given parameters and returns the
// response application object.
func (c *Call) Invoke(ctx context.Context, params ...soap.Param) (any, error) {
	ictx := c.newContext(ctx, params)
	if err := c.chain(ictx); err != nil {
		return nil, err
	}
	return ictx.Result, nil
}

// InvokeContext performs the call and returns the full invocation
// context (tests and benchmarks inspect CacheHit and the raw XML).
func (c *Call) InvokeContext(ctx context.Context, params ...soap.Param) (*Context, error) {
	ictx := c.newContext(ctx, params)
	if err := c.chain(ictx); err != nil {
		return nil, err
	}
	return ictx, nil
}

// buildChain composes the handler chain and terminal pivot once, at
// construction. Every closure captures only invariants, so the chain
// is safe for concurrent invocations and a cached hit pays no
// per-call closure allocations.
func (c *Call) buildChain() Invoker {
	chain := c.pivot
	if b := c.opts.Breaker; b != nil {
		// Innermost handler: only invocations that miss every cache
		// reach (and are gated by) the breaker.
		chain = func(ic *Context) error {
			return b.HandleInvoke(ic, c.pivot)
		}
	}
	for i := len(c.opts.Handlers) - 1; i >= 0; i-- {
		h := c.opts.Handlers[i]
		next := chain
		if c.timed {
			// Per-handler timing is inclusive of everything below the
			// handler in the chain (its next calls), so the outermost
			// series approximates whole-invocation latency.
			name := c.handlerNames[i]
			chain = func(ic *Context) error {
				start := c.now()
				err := h.HandleInvoke(ic, next)
				c.observe(ic.Operation, obs.StageHandler, name, c.now().Sub(start), err)
				return err
			}
		} else {
			chain = func(ic *Context) error {
				return h.HandleInvoke(ic, next)
			}
		}
	}
	return chain
}

// pivot is the terminal handler: serialize, send, parse, deserialize.
func (c *Call) pivot(ictx *Context) error {
	var start time.Time
	if c.timed {
		start = c.now()
	}
	reqXML, err := c.codec.EncodeRequest(ictx.Namespace, ictx.Operation, ictx.Params)
	if c.timed {
		c.observe(ictx.Operation, obs.StageSerialize, "", c.now().Sub(start), err)
	}
	if err != nil {
		return fmt.Errorf("client: %s: %w", ictx.Operation, err)
	}
	ictx.RequestXML = reqXML

	if c.timed {
		start = c.now()
	}
	resp, err := c.tr.Send(ictx.Ctx, &transport.Request{
		Endpoint:   ictx.Endpoint,
		SOAPAction: ictx.SOAPAction,
		Body:       reqXML,
		Header:     ictx.RequestHeader,
	})
	if c.timed {
		// Send time includes the retrying transport's attempts and
		// backoff sleeps when Options.Retry is set.
		c.observe(ictx.Operation, obs.StageSend, "", c.now().Sub(start), err)
	}
	if err != nil {
		return fmt.Errorf("client: %s: %w", ictx.Operation, err)
	}
	ictx.ResponseHeader = resp.Header
	if resp.NotModified() {
		// Validator answered: no body to decode; the caller (cache)
		// owns the still-fresh representation.
		ictx.NotModified = true
		return nil
	}
	ictx.ResponseXML = resp.Body

	if c.timed {
		start = c.now()
	}
	msg, err := c.memo.Decode(resp.Body)
	if c.timed {
		// Parse time covers tokenization and deserialization, or a
		// memo hit's byte compare and field plan.
		c.observe(ictx.Operation, obs.StageParse, "", c.now().Sub(start), err)
	}
	if err != nil {
		return fmt.Errorf("client: %s: %w", ictx.Operation, err)
	}
	if msg.Fault != nil {
		return msg.Fault
	}
	ictx.Result = msg.Result()
	return nil
}
