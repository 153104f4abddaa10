package server

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
)

// ResponseCache is the server-side counterpart of the client cache: it
// stores fully encoded response envelopes keyed by a digest of the raw
// request body, so repeated identical requests skip decoding, the
// handler, and re-encoding. The table is an engine.Engine — the same
// shards, LRU and freshness ladder as the client cache; this type adds
// only the HTTP/SOAP front end. Bodies are held by one of the client
// cache's own streaming representations (rep.ValueStore, DESIGN.md
// §5j), so both caches replay bytes with the same code. The paper's
// related-work section surveys this family (dynamic Web data caching at
// the server side); it composes with — and is orthogonal to — the
// client-side cache that is the paper's focus.
//
// Keying on the request bytes requires byte-identical requests for a
// hit (the key is the engine's seeded 128-bit digest of them, so the
// request itself is never retained); SOAP clients (including this repository's) serialize
// deterministically, so equivalent calls from the same stack match.
// Clients with different prefix conventions simply miss and are served
// normally.
type ResponseCache struct {
	inner     *Dispatcher
	ttl       time.Duration
	cacheable func(operation string) bool
	now       func() time.Time
	body      rep.ValueStore
	eng       *engine.Engine[any] // request digest → body payload

	// reg backs the hit/miss counters (never nil; Config.Obs or a
	// private registry). timed gates stage latency recording, on only
	// when the caller supplied a registry or tracer.
	reg    *obs.Registry
	hits   *obs.Counter
	misses *obs.Counter
	tracer obs.Tracer
	timed  bool
}

// ResponseCacheConfig configures NewResponseCache.
type ResponseCacheConfig struct {
	// TTL bounds entry freshness; 0 means entries never expire.
	TTL time.Duration
	// MaxEntries bounds the table; 0 means 4096. The bound is sliced
	// across the engine's shards, so a full cache holds at most — and
	// with unevenly hashed keys fewer than — MaxEntries.
	MaxEntries int
	// Cacheable decides per operation; nil caches every operation.
	Cacheable func(operation string) bool
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
	// Obs, when non-nil, is the registry the cache records its
	// server.hits / server.misses counters and server-side stage
	// latencies into; nil defaults to a private registry (counters are
	// still kept — Stats reads them — but latency histograms are
	// skipped and nothing is served).
	Obs *obs.Registry
	// Tracer, when non-nil, receives an OnStage callback per recorded
	// stage. Stage timing is on when either Obs or Tracer is set.
	Tracer obs.Tracer
	// Body chooses the resident representation for cached response
	// bodies (paper Table 3 applied server-side): a representation whose
	// hits are byte streams (rep.Streamed), i.e. "raw" or "xmltmpl". Nil
	// keeps raw bytes (rep.NewRawStreamStore).
	Body rep.ValueStore
}

// NewResponseCache wraps a Dispatcher with server-side response
// caching.
func NewResponseCache(inner *Dispatcher, cfg ResponseCacheConfig) *ResponseCache {
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	now := clock.Or(cfg.Clock)
	reg := obs.Or(cfg.Obs)
	body := cfg.Body
	if body == nil {
		body = rep.NewRawStreamStore()
	}
	hits, misses := reg.Counter("server.hits"), reg.Counter("server.misses")
	return &ResponseCache{
		inner:     inner,
		ttl:       cfg.TTL,
		cacheable: cfg.Cacheable,
		now:       now,
		body:      body,
		eng: engine.New[any](
			engine.Config{MaxEntries: maxEntries, Clock: cfg.Clock},
			engine.Counters{Hits: hits, Misses: misses}),
		reg:    reg,
		hits:   hits,
		misses: misses,
		tracer: cfg.Tracer,
		timed:  cfg.Obs != nil || cfg.Tracer != nil,
	}
}

// Stats returns (hits, misses), read from the metrics registry.
func (c *ResponseCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// observe records one timed stage; callers gate on c.timed.
func (c *ResponseCache) observe(op string, stage obs.Stage, d time.Duration, err error) {
	c.reg.Stage(stage, "", d, err)
	if c.tracer != nil {
		c.tracer.OnStage(op, stage, "", d, err)
	}
}

// Len returns the number of cached responses.
func (c *ResponseCache) Len() int { return c.eng.Len() }

// cacheableOp sniffs the request's operation and reports whether this
// request goes through the cache at all.
func (c *ResponseCache) cacheableOp(request []byte) (op string, ok bool) {
	op, err := soap.SniffOperation(request)
	return op, err == nil && op != "" && (c.cacheable == nil || c.cacheable(op))
}

// Handle serves a request, from cache when possible. Faults are never
// cached.
func (c *ResponseCache) Handle(request []byte) ([]byte, bool, error) {
	op, ok := c.cacheableOp(request)
	if !ok {
		return c.inner.Handle(request)
	}
	key := c.eng.Digest(request)
	if hit, ok := c.lookup(key, op); ok {
		// Rendered outside the shard lock: for xmltmpl this splices the
		// body and must not serialize concurrent hits.
		if st, err := c.streamed(hit.Value); err == nil {
			return st.Bytes(), false, nil
		}
		c.eng.Unhit(key, hit)
	}
	return c.fill(key, op, request)
}

// errNotStreamed reports a Body whose hits are not byte streams.
var errNotStreamed = errors.New("server: cached body does not load as a byte stream")

// streamed loads a cached payload as the byte stream a hit replays. An
// error is a failed replay: the caller re-books the hit and refills.
func (c *ResponseCache) streamed(payload any) (rep.Streamed, error) {
	v, err := c.body.Load(payload)
	if err != nil {
		return nil, err
	}
	st, ok := v.(rep.Streamed)
	if !ok {
		return nil, errNotStreamed
	}
	return st, nil
}

// lookup is the one lookup behind Handle and ServeHTTP: the engine's
// serving ladder, which counts the hit or miss, timed as the lookup
// stage. A hit whose payload then fails to replay is re-booked with
// Unhit — the origin gets called, so it must read as a miss.
func (c *ResponseCache) lookup(key engine.Key, op string) (engine.Hit[any], bool) {
	var start time.Time
	if c.timed {
		start = c.now()
	}
	hit, st := c.eng.Lookup(key, engine.Serve)
	if c.timed {
		c.observe(op, obs.StageServerLookup, c.now().Sub(start), nil)
	}
	return hit, st == engine.Found
}

// fill runs the handler and caches a successful response.
func (c *ResponseCache) fill(key engine.Key, op string, request []byte) ([]byte, bool, error) {
	body, isFault, err := c.inner.Handle(request)
	if err != nil || isFault {
		return body, isFault, err
	}
	var start time.Time
	if c.timed {
		start = c.now()
	}
	// The body is stored as the captured envelope of a stream-accepting
	// invocation, exactly as the client cache stores one. Bodies the
	// representation cannot hold (e.g. non-XML under xmltmpl) are simply
	// not cached.
	if payload, size, err := c.body.Store(&client.Context{ResponseXML: body, AcceptStream: true}); err == nil {
		c.eng.Insert(key, engine.Item[any]{Value: payload, Size: size, TTL: c.ttl})
	}
	if c.timed {
		c.observe(op, obs.StageServerStore, c.now().Sub(start), nil)
	}
	return body, false, nil
}

// ServeHTTP adapts the caching handler to HTTP, mirroring
// Dispatcher.ServeHTTP (including validator behaviour). Hits replay the
// resident payload straight into the response writer.
func (c *ResponseCache) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, lastMod, ttl, done := soapPreamble(w, r, c.inner)
	if done {
		return
	}
	op, ok := c.cacheableOp(body)
	if !ok {
		resp, isFault, herr := c.inner.Handle(body)
		writeSOAPResponse(w, lastMod, ttl, resp, isFault, herr)
		return
	}
	key := c.eng.Digest(body)
	if hit, ok := c.lookup(key, op); ok {
		var start time.Time
		if c.timed {
			start = c.now()
		}
		var n int64
		st, werr := c.streamed(hit.Value)
		if werr == nil {
			setSOAPHeaders(w, lastMod, ttl)
			n, werr = st.WriteTo(w)
		}
		if c.timed {
			c.observe(op, obs.StageServerStream, c.now().Sub(start), werr)
		}
		if werr == nil || n > 0 {
			// Served (or the client went away mid-write — nothing left
			// to do either way).
			return
		}
		// The payload could not be replayed and nothing was written:
		// refill from the handler.
		c.eng.Unhit(key, hit)
	}
	resp, isFault, herr := c.fill(key, op, body)
	writeSOAPResponse(w, lastMod, ttl, resp, isFault, herr)
}
