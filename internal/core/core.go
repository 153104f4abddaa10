// Package core implements the paper's primary contribution: a response
// cache for Web services client middleware that selects the optimal
// data representation for cache keys and cache values (Takase &
// Tatsubori, ICDCS 2004).
//
// The cache installs into the client handler chain (package client). On
// an invocation it generates a key from the request (endpoint URL,
// operation name, and all parameter names and values — Section 4.1),
// looks it up, and on a fresh hit materializes the stored value back
// into an application object using the entry's value representation;
// the serialize/transport/parse/deserialize pipeline is skipped to the
// extent the representation allows (Section 3.3).
//
// Key representations (Table 2): the request XML message, the
// binary-serialized parameters (Go analog of Java serialization; an
// encoding/gob variant is retained for ablation), or a canonical
// string (Go analog of toString).
//
// Value representations (Table 3): the response XML message, the
// recorded SAX event sequence (naive or compact), the DOM tree, the
// binary-serialized application object, a reflection deep copy, a
// Cloner deep copy, or a shared reference for read-only/immutable
// objects. The representations themselves live in package rep;
// rep.Selector picks per result type at run time: statically ("auto"),
// implementing the optimal configuration of Section 6, or — the default
// when Config.Rep is set and Config.Store is not — adaptively, refining
// that choice online from measured Store/Load cost.
//
// Concurrency and structure: the table itself — shards, 128-bit digest
// keys, LRU and byte budgets, the freshness ladder, sweeping, miss
// coalescing — is package engine's; this package is the front end that
// adds per-operation policy, key generation, representation load/store
// and tier stacking. See DESIGN.md §5d and §5j.
package core

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/tier"
	"repro/internal/transport"
)

// Config configures a response cache.
type Config struct {
	// KeyGen generates cache keys; required. Generators that also
	// implement KeyAppender let the cache hash the key from a pooled
	// scratch buffer without materializing a key string per lookup.
	KeyGen rep.KeyGenerator
	// Store is the default value representation. When nil, Rep must be
	// set and the cache builds an adaptive rep.Selector over it — the
	// measured-cost selector with the static Section 6 order as prior —
	// sized to the per-shard slice of MaxBytes.
	Store rep.ValueStore
	// Rep is the representation registry backing the default adaptive
	// selector when Store is nil. Ignored when Store is set.
	Rep *rep.Registry
	// Policy controls per-operation cacheability; zero value caches
	// every operation with DefaultTTL.
	Policy Policy
	// DefaultTTL applies when neither the policy nor the store dictates
	// a TTL. Zero means entries never expire.
	DefaultTTL time.Duration
	// MaxEntries bounds the number of cache entries; 0 means unbounded.
	// The budget is sliced evenly across the shards, so eviction is
	// per-shard LRU (approximate global LRU; see DESIGN.md §5d).
	MaxEntries int
	// MaxBytes bounds the estimated total payload bytes; 0 means
	// unbounded. Sliced across shards like MaxEntries. Both bounds apply
	// separately to the L1 table and to the table of wire entries the
	// cache holds when served as a tier.Tier, so a cache used in both
	// roles at once can hold twice the budget; a cache serves one role.
	MaxBytes int
	// Shards is the number of independent cache shards, rounded up to a
	// power of two. 0 picks min(64, 4×GOMAXPROCS). A cache with small
	// MaxEntries uses fewer shards so every shard's slice of the entry
	// budget stays at least one entry; Shards: 1 restores the exact
	// single-table LRU semantics.
	Shards int
	// Revalidate enables the HTTP 1.1 consistency mechanism the paper
	// points to (Section 3.2): expired entries whose responses carried
	// a Last-Modified validator are kept as stale, and the next request
	// is sent conditionally (If-Modified-Since). A 304 answer refreshes
	// the entry's TTL and serves the stored representation, paying the
	// round trip but not the response processing.
	Revalidate bool
	// HonorServerTTL derives entry TTLs from the response's
	// Cache-Control max-age / Expires headers when present, overriding
	// DefaultTTL and the operation policy.
	HonorServerTTL bool
	// StaleIfError enables degraded serving: when a miss's backend
	// invocation fails with a transport-level error (anything but a
	// SOAP fault), a TTL-expired entry still within this grace window
	// past its expiry is served instead of the error, flagged via
	// client.Context.ServedStale. Expired entries are retained (from
	// lookup and the sweeper) until the window passes. Zero disables.
	StaleIfError time.Duration
	// Invalidator, when non-nil, enables dependency-aware invalidation
	// (DESIGN.md §5f): entries of operations with a declared read set
	// are stamped with their keyspaces' epochs at fill time, a
	// write-through call of an operation with a declared write set bumps
	// those epochs, and a hit whose stamps are stale is treated as a
	// miss. Operations with no declared sets are unaffected and stay on
	// the pull-based fallback ladder (TTL, then Revalidate). Share one
	// Invalidator between every cache that must observe the same writes.
	Invalidator *invalidate.Invalidator
	// Coalesce collapses concurrent misses on one key into a single
	// backend invocation (singleflight): followers wait for the
	// leader's fill and are served from the cache, so a thundering herd
	// of identical requests costs one backend call.
	Coalesce bool
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
	// Obs, when non-nil, is the registry this cache records its metrics
	// into: the Stats counters, per-operation and per-representation
	// hit/miss counts, and per-stage latency histograms (keygen, lookup,
	// copy-in/copy-out, backend invoke, coalesced waits). nil defaults
	// to a private registry (obs.Or): counters are still kept — Stats
	// reads them — but latency histograms are skipped and nothing is
	// served. Share one registry across the layers of a stack (cache,
	// client options, transport, breaker) for a single /debug/wscache
	// page; do not share one between caches whose Stats must stay
	// separate.
	Obs *obs.Registry
	// Tracer, when non-nil, receives an OnStage callback per recorded
	// stage, for log/trace integration. nil disables tracing and costs
	// nothing on the hot path.
	Tracer obs.Tracer
	// Tiers are remote cache tiers consulted, in order, between an L1
	// miss and the backend invocation (DESIGN.md §5h) — typically one
	// cluster.Remote pointing at shared wscached daemons. Tier entries
	// travel in a wire-capable representation chosen per fill, so
	// configuring tiers requires Rep (or a Store that is a
	// *rep.Selector). Tier failures degrade to ordinary misses. All
	// processes sharing a tier must use the same KeyGen strategy: the
	// cross-process tier key is derived from the generated key bytes.
	Tiers []tier.Tier
}

// Stats are cumulative cache counters, read from the cache's metrics
// registry by Cache.Stats. Bytes and Entries describe the current
// structure; the rest are monotonic event counts.
type Stats struct {
	Hits          int64
	Misses        int64
	Stores        int64
	Expirations   int64
	Evictions     int64
	Revalidations int64 // stale entries refreshed by a 304 answer
	StaleServes   int64 // expired entries served because the backend failed
	Invalidations int64 // entries dropped because a dependency epoch advanced
	StaleRefused  int64 // degraded/revalidation serves refused as write-invalidated
	Coalesced     int64 // misses satisfied by another in-flight invocation
	Errors        int64 // store/load failures that fell back to the pivot
	Bypass        int64 // invocations of uncacheable operations
	TierHits      int64 // L1 misses served from a remote tier
	TierErrors    int64 // remote tier failures degraded to misses
	Bytes         int   // current estimated payload bytes
	Entries       int   // current entry count
}

// HitRatio returns hits / (hits + misses), or 0.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// OperationStats are per-operation counters, the view an administrator
// tuning the per-operation policy (Section 3.2) needs: which operations
// hit, which bypass, which churn.
type OperationStats struct {
	Hits   int64
	Misses int64
	Stores int64
	Bypass int64
}

// HitRatio returns hits / (hits + misses), or 0.
func (s OperationStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// value is what the cache keeps per entry: the representation's payload
// and the store that produced it, which is the one that can load it
// (per-operation stores and tier promotions make it vary by entry).
type value struct {
	payload any
	store   rep.ValueStore
}

// Cache is the response cache. It implements client.Handler.
type Cache struct {
	keygen         rep.KeyGenerator
	keyapp         rep.KeyAppender // non-nil when keygen supports append-style keys
	store          rep.ValueStore
	policy         Policy
	defaultTTL     time.Duration
	revalidate     bool
	honorServerTTL bool
	staleIfError   time.Duration
	coalesce       bool
	inval          *invalidate.Invalidator
	now            func() time.Time

	// tiers is the remote tier stack (Config.Tiers), wire the selector
	// encoding/decoding entries for it, tierm the per-tier counters
	// parallel to tiers.
	tiers []tier.Tier
	wire  *rep.Selector
	tierm []tierCounters

	// eng is the table of L1 entries. The embedded Tier is the cache's
	// other role (DESIGN.md §5h): the daemon side of the tier protocol,
	// exactly as cmd/wscached runs it, over a table of its own — wire
	// entries are served back as bytes and never mix with L1 entries. A
	// cache serves one role or the other (a client's L1, or the store
	// behind a cluster.Server); budgets apply to each table (see
	// Config.MaxBytes), and Stats, Len, Clear and SweepExpired — which
	// shadow the Tier's own — cover both.
	eng *engine.Engine[value]
	*engine.Tier

	// reg is the metrics registry (never nil; Config.Obs or a private
	// one). m holds its counters backing Stats, resolved once. timed
	// reports whether stage latency recording is on: only when the
	// caller supplied a registry or tracer, so the default path pays no
	// clock reads.
	reg    *obs.Registry
	m      cacheCounters
	tracer obs.Tracer
	timed  bool
}

// cacheCounters are the registry counters backing Stats, one per field,
// resolved once at construction so the hot path never hashes a name.
type cacheCounters struct {
	engine.Counters // hits, misses, stores, expirations, evictions, invalidations: kept by the engine
	revalidations   *obs.Counter
	staleServes     *obs.Counter
	staleRefused    *obs.Counter
	coalesced       *obs.Counter
	errors          *obs.Counter
	bypass          *obs.Counter
	tierHits        *obs.Counter
	tierErrors      *obs.Counter
}

// newCacheCounters resolves the Stats counters in reg.
func newCacheCounters(reg *obs.Registry) cacheCounters {
	return cacheCounters{
		Counters:      engine.CoreCounters(reg),
		revalidations: reg.Counter("core.revalidations"),
		staleServes:   reg.Counter("core.stale_serves"),
		staleRefused:  reg.Counter("core.stale_refused"),
		coalesced:     reg.Counter("core.coalesced"),
		errors:        reg.Counter("core.errors"),
		bypass:        reg.Counter("core.bypass"),
		tierHits:      reg.Counter("core.tier_hits"),
		tierErrors:    reg.Counter("core.tier_errors"),
	}
}

var (
	_ client.Handler = (*Cache)(nil)
	_ tier.Tier      = (*Cache)(nil) // through the embedded engine.Tier
)

// New builds a Cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	now := clock.Or(cfg.Clock)
	reg := obs.Or(cfg.Obs)
	m := newCacheCounters(reg)
	eng := engine.New[value](cfg.engineConfig(), m.Counters)
	if cfg.Store == nil {
		sel, err := rep.NewAdaptiveSelector(rep.SelectorConfig{
			Registry: cfg.Rep,
			// Score payload size against one shard's slice of the byte
			// budget: that is the capacity an entry actually competes
			// for. Unbounded caches (-1) keep the selector's default.
			ByteBudget: int64(eng.ShardBytes()),
			Clock:      cfg.Clock,
			Obs:        cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		cfg.Store = sel
	}
	c := &Cache{
		keygen:         cfg.KeyGen,
		store:          cfg.Store,
		policy:         cfg.Policy,
		defaultTTL:     cfg.DefaultTTL,
		revalidate:     cfg.Revalidate,
		honorServerTTL: cfg.HonorServerTTL,
		staleIfError:   cfg.StaleIfError,
		coalesce:       cfg.Coalesce,
		inval:          cfg.Invalidator,
		now:            now,
		eng:            eng,
		Tier:           engine.NewTier(cfg.engineConfig(), cfg.Invalidator, reg),
		reg:            reg,
		m:              m,
		tracer:         cfg.Tracer,
		timed:          cfg.Obs != nil || cfg.Tracer != nil,
	}
	if ka, ok := cfg.KeyGen.(rep.KeyAppender); ok {
		c.keyapp = ka
	}
	if len(cfg.Tiers) > 0 {
		c.tiers = cfg.Tiers
		c.wire = resolveWire(cfg.Store, cfg.Rep)
		c.tierm = make([]tierCounters, len(cfg.Tiers))
		tiers := cfg.Tiers
		tierm := c.tierm
		reg.SetInspection("tiers", func() any {
			type tierView struct {
				Remote tier.Stats // the tier's own view (traffic, capacity)
				Local  tier.Stats // this cache's view of it (hits, misses, errors, stores)
			}
			out := make(map[string]tierView, len(tiers))
			for i, t := range tiers {
				out[t.Name()] = tierView{
					Remote: t.TierStats(),
					Local: tier.Stats{
						Hits:   int64(tierm[i].hits.Load()),
						Misses: int64(tierm[i].misses.Load()),
						Errors: int64(tierm[i].errors.Load()),
						Stores: int64(tierm[i].stores.Load()),
					},
				}
			}
			return out
		})
	}
	return c, nil
}

// MustNew is New panicking on configuration errors; for wiring in
// examples and benchmarks where the config is static.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Shards returns the number of shards the cache was built with.
func (c *Cache) Shards() int { return c.eng.Shards() }

// keyBufPool recycles the scratch buffers append-style key generation
// writes into, so a lookup hashes the key bytes without allocating.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// appendKey runs the request's one key-generation pass, appending the
// cache key to b. An append-capable generator writes straight into the
// scratch buffer; any other generator's Key string is copied in, so
// both digests are always taken from bytes the pool owns.
//
//lint:hotpath
func (c *Cache) appendKey(b []byte, ictx *client.Context) ([]byte, error) {
	if c.keyapp != nil {
		return c.keyapp.AppendKey(b, ictx)
	}
	key, err := c.keygen.Key(ictx)
	return append(b, key...), err
}

// Stats returns a snapshot of the cache counters, read from the
// metrics registry and the per-shard structure mirrors. Each value is
// individually exact; a snapshot taken while invocations are in flight
// may straddle an update. Stats takes no shard locks, so it never
// contends with the hit path.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.m.Hits.Load(),
		Misses:        c.m.Misses.Load(),
		Stores:        c.m.Stores.Load(),
		Expirations:   c.m.Expirations.Load(),
		Evictions:     c.m.Evictions.Load(),
		Revalidations: c.m.revalidations.Load(),
		StaleServes:   c.m.staleServes.Load(),
		Invalidations: c.m.Invalidations.Load(),
		StaleRefused:  c.m.staleRefused.Load(),
		Coalesced:     c.m.coalesced.Load(),
		Errors:        c.m.errors.Load(),
		Bypass:        c.m.bypass.Load(),
		TierHits:      c.m.tierHits.Load(),
		TierErrors:    c.m.tierErrors.Load(),
		Bytes:         c.eng.Bytes() + c.Tier.TierStats().Bytes,
		Entries:       c.Len(),
	}
}

// StatsByOperation returns a snapshot of per-operation counters, read
// from the metrics registry.
func (c *Cache) StatsByOperation() map[string]OperationStats {
	snap := c.reg.Snapshot()
	out := make(map[string]OperationStats, len(snap.Operations))
	for op, s := range snap.Operations {
		out[op] = OperationStats{
			Hits:   s.Hits,
			Misses: s.Misses,
			Stores: s.Stores,
			Bypass: s.Bypass,
		}
	}
	return out
}

// Obs returns the cache's metrics registry: the one supplied via
// Config.Obs, or the private default. Serve it with obs.Handler to get
// the /debug/wscache endpoint for a cache that was not built with a
// shared registry.
func (c *Cache) Obs() *obs.Registry { return c.reg }

// observe records one timed stage into the registry histograms and the
// tracer; callers gate on c.timed so the untimed path pays nothing.
func (c *Cache) observe(op string, stage obs.Stage, rep string, d time.Duration, err error) {
	c.reg.Stage(stage, rep, d, err)
	if c.tracer != nil {
		c.tracer.OnStage(op, stage, rep, d, err)
	}
}

// Len returns the current number of entries, without taking any shard
// lock.
func (c *Cache) Len() int { return c.eng.Len() + c.Tier.Len() }

// Clear discards all entries, shard by shard.
func (c *Cache) Clear() {
	c.eng.Clear()
	c.Tier.Clear()
}

// SweepExpired removes every reclaimable expired or write-invalidated
// entry now (engine.Engine.Sweep) and returns how many were removed.
func (c *Cache) SweepExpired() int { return c.eng.Sweep() + c.Tier.SweepExpired() }

// Sweeper runs SweepExpired on an interval; see engine.Sweeper.
type Sweeper = engine.Sweeper

// NewSweeperContext starts a sweeper over cache that stops on Shutdown
// or when ctx is cancelled.
func NewSweeperContext(ctx context.Context, cache *Cache, interval time.Duration) *Sweeper {
	return engine.NewSweeper(ctx, cache.SweepExpired, interval)
}

// HandleInvoke implements client.Handler: the cache lookup and fill
// logic described in Section 3.3 and Figure 1.
func (c *Cache) HandleInvoke(ictx *client.Context, next client.Invoker) error {
	op := c.policy.For(ictx.Operation)
	if !op.Cacheable {
		c.m.bypass.Add(1)
		c.reg.Op(ictx.Operation).Bypass.Add(1)
		// Write operations are typically uncacheable, so the bypass
		// path is where write-through calls flow: commit their declared
		// write sets so dependent entries invalidate.
		err := next(ictx)
		c.commitWrite(ictx, err)
		return err
	}

	// One key-generation pass per request: the key bytes stay in the
	// pooled scratch buffer across the L1 lookup, so a miss derives the
	// cross-process tier key from the very bytes the L1 digest was taken
	// from. A hit pays neither the FNV pass nor a defer.
	var start time.Time
	if c.timed {
		start = c.now()
	}
	bp := keyBufPool.Get().(*[]byte)
	key, err := c.appendKey((*bp)[:0], ictx)
	var d engine.Key
	if err == nil {
		d = c.eng.Digest(key)
	}
	if c.timed {
		c.observe(ictx.Operation, obs.StageKeyGen, c.keygen.Name(), c.now().Sub(start), err)
	}
	if err != nil {
		// Fail open: an ungeneratable key means this request cannot be
		// cached, not that it cannot be served.
		keyBufPool.Put(bp)
		c.m.errors.Add(1)
		return next(ictx)
	}

	result, hit := c.lookup(d, ictx.Operation)
	// Unlike the L1 digest (per-process maphash seeds), tier.KeyOf is a
	// fixed function of the key bytes, so every process sharing a daemon
	// — and the same KeyGen configuration — computes the same key. Only
	// misses need it.
	var tk tier.Key
	if !hit && len(c.tiers) > 0 {
		tk = tier.KeyOf(key)
	}
	*bp = key[:0] // keep any growth for the next request
	keyBufPool.Put(bp)

	if hit {
		ictx.Result = result
		ictx.CacheHit = true
		c.reg.Op(ictx.Operation).Hits.Add(1)
		return nil
	}
	c.reg.Op(ictx.Operation).Misses.Add(1)

	if c.coalesce {
		return c.invokeCoalesced(d, tk, op, ictx, next)
	}
	return c.invokeMiss(d, tk, op, ictx, next)
}

// invokeMiss drives a miss through the pivot: conditional-request
// setup, the invocation itself, stale-on-error degradation, 304
// refresh, and the fill. tk is the request's tier key, meaningful only
// when tiers are configured.
func (c *Cache) invokeMiss(d engine.Key, tk tier.Key, op OperationPolicy, ictx *client.Context, next client.Invoker) error {
	// Remote tiers sit between the L1 miss and the origin: another
	// process may already have paid the backend round trip and the
	// response processing for this exact request.
	haveTiers := len(c.tiers) > 0
	if haveTiers {
		if result, ok := c.tierServe(d, tk, ictx); ok {
			ictx.Result = result
			ictx.CacheHit = true
			return nil
		}
	}

	// Dependency stamps are snapshotted BEFORE the backend read: a
	// declared write racing this invocation bumps its epochs after its
	// backend write completes, so whichever data the backend serves us,
	// the filled entry is stamped pre-write and a later hit re-checks it
	// against the advanced epoch. Conservative misses, never stale hits.
	// The per-tier snapshot (the daemon epochs this process has
	// mirrored) obeys the same ordering for the same reason.
	stamps := c.readStamps(ictx)
	var tstamps [][]tier.Stamp
	if haveTiers {
		tstamps = c.tierStamps(tk, ictx)
	}

	// An expired entry retained with a validator turns this miss into a
	// conditional request (If-Modified-Since): the server may answer 304
	// instead of recomputing and shipping the response. The lookup
	// refuses (and drops) a write-invalidated entry: its representation
	// is known to predate a committed write, so a 304 must not be allowed
	// to resurrect it — the invocation proceeds unconditional.
	if c.revalidate {
		if hit, st := c.eng.Lookup(d, engine.Validator); st == engine.Found {
			if ictx.RequestHeader == nil {
				ictx.RequestHeader = make(http.Header, 1)
			}
			ictx.RequestHeader.Set("If-Modified-Since", hit.LastModified.UTC().Format(http.TimeFormat))
		}
	}

	err := c.invokeTimed(ictx, next)
	c.commitWrite(ictx, err)
	if err != nil {
		if result, ok := c.staleOnError(d, ictx.Operation, err); ok {
			ictx.Result = result
			ictx.CacheHit = true
			ictx.ServedStale = true
			return nil
		}
		return err
	}

	if ictx.NotModified {
		if result, ok := c.refreshStale(d, op, ictx); ok {
			ictx.Result = result
			ictx.CacheHit = true
			return nil
		}
		// The stale entry backing the conditional request is gone —
		// evicted, swept, or write-invalidated between the header setup
		// and the 304 answer. The 304 has no body, so retry
		// unconditionally instead of failing the invocation.
		ictx.RequestHeader.Del("If-Modified-Since")
		ictx.NotModified = false
		stamps = c.readStamps(ictx)
		if haveTiers {
			tstamps = c.tierStamps(tk, ictx)
		}
		err = c.invokeTimed(ictx, next)
		c.commitWrite(ictx, err)
		if err != nil {
			return err
		}
		if ictx.NotModified {
			return fmt.Errorf("core: server answered 304 to an unconditional request for operation %s", ictx.Operation)
		}
	}

	c.fill(d, op, ictx, stamps)
	if haveTiers {
		c.tierFill(tk, op, ictx, tstamps)
	}
	return nil
}

// invokeTimed runs the rest of the handler chain, timing the invoke
// stage: serialize, transport (with retries), parse, deserialize.
func (c *Cache) invokeTimed(ictx *client.Context, next client.Invoker) error {
	var start time.Time
	if c.timed {
		start = c.now()
	}
	err := next(ictx)
	if c.timed {
		c.observe(ictx.Operation, obs.StageInvoke, "", c.now().Sub(start), err)
	}
	return err
}

// refreshStale extends a stale entry's TTL after a 304 answer and
// materializes its payload.
func (c *Cache) refreshStale(d engine.Key, op OperationPolicy, ictx *client.Context) (any, bool) {
	hit, st := c.eng.Refresh(d, c.entryTTL(op, ictx))
	if st != engine.Found {
		if st == engine.Invalidated {
			// A declared write landed between the conditional-request setup
			// and the 304 answer; the 304 vouches for the server resource
			// the validator describes, not for our invalidated dependency
			// snapshot. The entry is gone and the caller refetches.
			c.m.staleRefused.Add(1)
		}
		return nil, false
	}
	c.m.revalidations.Add(1)
	return c.loadPayload(ictx.Operation, hit.Value, c.m.errors)
}

// loadPayload materializes a stored payload, timing the copy-out stage
// and counting a per-representation hit (serve) or error; a failure is
// also counted in errs, the caller's Stats counter for it.
//
//lint:hotpath
func (c *Cache) loadPayload(op string, v value, errs *obs.Counter) (any, bool) {
	store := v.store
	var start time.Time
	if c.timed {
		start = c.now()
	}
	result, err := store.Load(v.payload)
	if c.timed {
		// Per-representation counters feed only the observability
		// snapshot (Stats never reads them), so like stage timing they
		// are recorded only on instrumented caches — this keeps the
		// default hit path free of the registry lookup.
		c.observe(op, obs.StageCopyOut, store.Name(), c.now().Sub(start), err)
		if err != nil {
			c.reg.Rep(store.Name()).Errors.Add(1)
		} else {
			c.reg.Rep(store.Name()).Hits.Add(1)
		}
	}
	if err != nil {
		errs.Add(1)
		return nil, false
	}
	return result, true
}

// entryTTL resolves the TTL for a fill or refresh: server headers win
// when HonorServerTTL is set, then the operation policy, then the
// default.
func (c *Cache) entryTTL(op OperationPolicy, ictx *client.Context) time.Duration {
	if c.honorServerTTL && ictx.ResponseHeader != nil {
		if lifetime, ok := transport.FreshnessLifetime(ictx.ResponseHeader, c.now()); ok {
			return lifetime
		}
	}
	if op.TTL != 0 {
		return op.TTL
	}
	return c.defaultTTL
}

// lookup returns the materialized application object for the digest if
// a fresh entry exists; op names the operation for stage attribution.
//
//lint:hotpath
func (c *Cache) lookup(d engine.Key, op string) (any, bool) {
	var start time.Time
	if c.timed {
		start = c.now()
	}
	hit, st := c.eng.Lookup(d, engine.Serve)
	if c.timed {
		c.observe(op, obs.StageLookup, "", c.now().Sub(start), nil)
	}
	if st != engine.Found {
		return nil, false
	}
	// Materialize outside the shard lock: loads can be arbitrarily
	// expensive (XML parse for the XML-message representation).
	result, ok := c.loadPayload(op, hit.Value, c.m.errors)
	if !ok {
		// A payload that no longer loads is dropped and the hit re-booked
		// as a miss, so the pivot refills the entry.
		c.eng.Unhit(d, hit)
	}
	return result, ok
}

// fill stores a completed invocation's response. stamps are the
// dependency epochs snapshotted before the backend read (nil when no
// invalidator is configured or the operation declares no read set).
func (c *Cache) fill(d engine.Key, op OperationPolicy, ictx *client.Context, stamps []invalidate.Stamp) {
	store := c.store
	if op.Store != nil {
		store = op.Store
	}
	var start time.Time
	if c.timed {
		start = c.now()
	}
	payload, size, err := store.Store(ictx)
	if c.timed {
		c.observe(ictx.Operation, obs.StageCopyIn, store.Name(), c.now().Sub(start), err)
	}
	if err != nil {
		c.m.errors.Add(1)
		if c.timed {
			c.reg.Rep(store.Name()).Errors.Add(1)
		}
		return
	}

	var lastModified time.Time
	if ictx.ResponseHeader != nil {
		if lm := ictx.ResponseHeader.Get("Last-Modified"); lm != "" {
			if t, err := http.ParseTime(lm); err == nil {
				lastModified = t
			}
		}
	}
	c.eng.Insert(d, engine.Item[value]{
		Value:        value{payload: payload, store: store},
		Size:         size,
		TTL:          c.entryTTL(op, ictx),
		LastModified: lastModified,
		Stamps:       stamps,
	})
	c.reg.Op(ictx.Operation).Stores.Add(1)
	if c.timed {
		// A fill is the per-representation "miss": the entry was
		// populated with this representation.
		c.reg.Rep(store.Name()).Misses.Add(1)
	}
}
