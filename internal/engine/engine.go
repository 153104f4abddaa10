// Package engine is the one cache engine behind every cache in this
// repository: a sharded table from a 128-bit digest key to an entry
// (value, size, expiry, validator, dependency stamps) with per-shard
// LRU eviction under entry and byte budgets, the freshness ladder,
// sweeping, and per-key miss coalescing. It knows nothing about SOAP,
// representations, HTTP or the cluster protocol; three front ends add
// those: core.Cache (policy, key generation, representation load/store,
// tier stacking), server.ResponseCache (HTTP, body representations) and
// Tier in this package (the daemon side of the tier protocol, which
// cmd/wscached serves and core.Cache embeds). See DESIGN.md §5j.
//
// Concurrency: a key's low word routes it to one of a power-of-two
// number of shards, each owning its own lock, table, LRU list, budget
// slice and flight map. Operations on different shards never contend
// (DESIGN.md §5d).
package engine

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/invalidate"
	"repro/internal/obs"
)

// Key is the fixed-size identity of an entry. The low word routes to a
// shard; the full 128 bits are the table key, so no front end retains a
// multi-KB request verbatim. Front ends either reduce their key bytes
// with Digest (two independently seeded 64-bit maphash values, so two
// distinct keys alias only if they collide in all 128 bits under both
// per-engine seeds — about n²/2¹²⁹ for n live keys; DESIGN.md §5d) or
// bring a uniform 128-bit value of their own (tier keys).
type Key struct {
	Hi, Lo uint64
}

// Config sizes an engine and fixes its stale-retention rule.
type Config struct {
	// MaxEntries bounds the number of entries; 0 means unbounded. The
	// budget is sliced evenly across the shards, so eviction is
	// per-shard LRU: a bound, and approximately global LRU.
	MaxEntries int
	// MaxBytes bounds the summed entry sizes; 0 means unbounded. Sliced
	// across shards like MaxEntries.
	MaxBytes int
	// Shards is the number of shards, rounded up to a power of two.
	// 0 picks min(64, 4×GOMAXPROCS). A bounded engine uses fewer so
	// every shard's budget slice holds at least one entry; Shards: 1
	// gives exact single-table LRU.
	Shards int
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
	// RetainValidated keeps a TTL-expired entry that carries a
	// Last-Modified validator, so a Validator/Refresh lookup can
	// revalidate it instead of refetching.
	RetainValidated bool
	// StaleWindow keeps a TTL-expired entry for this long past its
	// expiry, so a ServeStale lookup can serve it degraded. Zero
	// disables.
	StaleWindow time.Duration
}

// Validate reports the first out-of-range field. New itself is total
// (a negative bound behaves as 0), so only front ends that take these
// values from flags or callers need it.
func (cfg Config) Validate() error {
	if cfg.MaxEntries < 0 {
		return fmt.Errorf("engine: MaxEntries is %d; bounds must be ≥ 0 (0 means unbounded)", cfg.MaxEntries)
	}
	if cfg.MaxBytes < 0 {
		return fmt.Errorf("engine: MaxBytes is %d; bounds must be ≥ 0 (0 means unbounded)", cfg.MaxBytes)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("engine: Shards is %d; want ≥ 0 (0 picks the default)", cfg.Shards)
	}
	if cfg.StaleWindow < 0 {
		return fmt.Errorf("engine: StaleWindow is %v; want ≥ 0 (0 disables degraded serving)", cfg.StaleWindow)
	}
	return nil
}

// Counters are the event counters the engine maintains. The front end
// owns their names; a nil counter is simply not kept (obs.Counter is
// nil-safe).
type Counters struct {
	Hits          *obs.Counter // Serve and Refresh lookups that found a servable entry
	Misses        *obs.Counter // Serve lookups that did not
	Stores        *obs.Counter
	Expirations   *obs.Counter // TTL-expired entries met by a Serve lookup or reclaimed by Sweep
	Evictions     *obs.Counter
	Invalidations *obs.Counter // entries dropped because a dependency epoch advanced
}

// CoreCounters resolves the counters under the "core.*" names they
// have carried since the engine lived inside core.Cache: the daemon's
// /debug/wscache page, dashboards and the benchmark join on those exact
// spellings, for an L1 and for a wscached alike.
func CoreCounters(reg *obs.Registry) Counters {
	return Counters{
		Hits:          reg.Counter("core.hits"),
		Misses:        reg.Counter("core.misses"),
		Stores:        reg.Counter("core.stores"),
		Expirations:   reg.Counter("core.expirations"),
		Evictions:     reg.Counter("core.evictions"),
		Invalidations: reg.Counter("core.invalidations"),
	}
}

// Item is what a front end inserts: a value of its own type plus the
// bookkeeping the ladder runs on.
type Item[V any] struct {
	Value V
	// Size is charged against the byte budget.
	Size int
	// TTL is the lifetime from now; zero means never expire. It is kept
	// so a Refresh without a new lifetime can re-arm the original one.
	TTL time.Duration
	// LastModified is the response's validator; zero when there is none.
	LastModified time.Time
	// Stamps are the entry's dependency epochs, snapshotted before the
	// backend read that produced the value. A stamp that no longer
	// matches its live epoch means a declared write landed after the
	// snapshot: the entry is write-invalidated and no lookup mode ever
	// returns it. Empty for entries with no declared dependencies.
	Stamps invalidate.Stamps
}

// entry is one resident Item, a node in its shard's LRU list.
type entry[V any] struct {
	key          Key
	value        V
	size         int
	expires      time.Time // zero means never
	ttl          time.Duration
	lastModified time.Time
	stamps       invalidate.Stamps

	prev, next *entry[V]
}

// expired reports whether the entry is past its TTL at now.
func (e *entry[V]) expired(now time.Time) bool {
	return !e.expires.IsZero() && now.After(e.expires)
}

// shard is one independent slice of the engine. Shards never take each
// other's locks.
type shard[V any] struct {
	// limEntries and limBytes are this shard's slice of the budgets,
	// fixed at construction. -1 means unbounded.
	limEntries int
	limBytes   int

	// nbytes and nentries mirror the guarded structure below; they are
	// updated inside the critical sections but read lock-free by Len
	// and Bytes, so snapshots never contend with the hit path.
	nbytes   atomic.Int64
	nentries atomic.Int64

	// flightMu guards flights; it is separate from mu so followers can
	// wait on a flight without holding the structural lock.
	flightMu sync.Mutex
	flights  map[Key]*Flight

	mu    sync.Mutex
	table map[Key]*entry[V]
	// LRU list: head is most recent, tail least recent. Sentinel-free,
	// nil-terminated both ways.
	head *entry[V]
	tail *entry[V]
}

// Engine is the sharded table. V is the front end's value type, stored
// inline in the entry so a hit copies it out under the shard lock with
// no boxing and no type assertion.
type Engine[V any] struct {
	now             func() time.Time
	retainValidated bool
	staleWindow     time.Duration
	m               Counters

	seed1, seed2 maphash.Seed
	mask         uint64
	shards       []shard[V]
}

// New builds an engine recording into m.
func New[V any](cfg Config, m Counters) *Engine[V] {
	n := shardCount(cfg)
	e := &Engine[V]{
		now:             clock.Or(cfg.Clock),
		retainValidated: cfg.RetainValidated,
		staleWindow:     cfg.StaleWindow,
		m:               m,
		seed1:           maphash.MakeSeed(),
		seed2:           maphash.MakeSeed(),
		mask:            uint64(n - 1),
		shards:          make([]shard[V], n),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.limEntries = sliceBudget(cfg.MaxEntries, n, i)
		sh.limBytes = sliceBudget(cfg.MaxBytes, n, i)
		//lint:ignore lockguard init-before-publish: the engine is not visible to any other goroutine yet
		sh.table = make(map[Key]*entry[V])
	}
	return e
}

// shardCount resolves the shard count for a config: the requested (or
// default) count rounded up to a power of two, then clamped down so a
// bounded engine never has more shards than budget — every shard's
// slice of MaxEntries must hold at least one entry, or keys routed to
// a zero-budget shard could never be cached.
func shardCount(cfg Config) int {
	n := cfg.Shards
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
		if n > 64 {
			n = 64
		}
	}
	n = ceilPow2(n)
	if cfg.MaxEntries > 0 && n > cfg.MaxEntries {
		n = floorPow2(cfg.MaxEntries)
	}
	if cfg.MaxBytes > 0 && n > cfg.MaxBytes {
		n = floorPow2(cfg.MaxBytes)
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (n ≥ 1).
func ceilPow2(n int) int { return 1 << bits.Len(uint(n-1)) }

// floorPow2 rounds n down to the previous power of two (n ≥ 1).
func floorPow2(n int) int { return 1 << (bits.Len(uint(n)) - 1) }

// sliceBudget splits a global budget across n shards: shard i receives
// total/n, with the remainder spread one-per-shard from the front so
// the slices sum exactly to the global bound. A zero total (unbounded)
// yields -1 (unbounded) for every shard.
func sliceBudget(total, n, i int) int {
	if total <= 0 {
		return -1
	}
	b := total / n
	if i < total%n {
		b++
	}
	return b
}

// Shards returns the number of shards the engine was built with.
//
//lint:ignore api core's TestShardedEvictionRespectsGlobalBound checks the rounding with it
func (e *Engine[V]) Shards() int { return len(e.shards) }

// Len returns the current number of entries, summed from the per-shard
// mirrors without taking any shard lock.
func (e *Engine[V]) Len() int {
	n := 0
	for i := range e.shards {
		n += int(e.shards[i].nentries.Load())
	}
	return n
}

// Bytes returns the summed entry sizes, lock-free like Len.
func (e *Engine[V]) Bytes() int {
	n := 0
	for i := range e.shards {
		n += int(e.shards[i].nbytes.Load())
	}
	return n
}

// Digest reduces key bytes to a Key under the engine's seeds. The bytes
// are not retained.
//
//lint:hotpath
func (e *Engine[V]) Digest(b []byte) Key {
	return Key{Hi: maphash.Bytes(e.seed1, b), Lo: maphash.Bytes(e.seed2, b)}
}

// shard routes a key to its shard.
//
//lint:hotpath
func (e *Engine[V]) shard(k Key) *shard[V] {
	return &e.shards[k.Lo&e.mask]
}

// mode selects which entries a lookup accepts. Every mode drops a
// write-invalidated entry on sight; they differ in how they treat TTL
// expiry and in what they count.
type mode uint8

const (
	// Serve is the serving ladder: only a fresh entry is returned, and
	// an expired one is dropped unless the retention rule still has a
	// use for it. Counted in Hits, Misses and Expirations.
	Serve mode = iota
	// ServeStale additionally accepts an expired entry inside the stale
	// window: degraded serving after a backend failure. A fresh entry is
	// served too (another invocation may have refilled the key since the
	// miss). Counts neither hit nor miss.
	ServeStale
	// Validator reports the Last-Modified of an expired entry retained
	// for revalidation, in Hit.LastModified, without serving it or
	// touching its recency.
	Validator
	// refresh is Refresh's mode: re-arm whatever entry is there.
	refresh
)

// status is a lookup's outcome.
type status uint8

const (
	// Found: Hit holds the entry's value.
	Found status = iota
	// absent: no entry, or none the mode applies to.
	absent
	// Invalidated: the entry's stamps had been overtaken by a committed
	// write. It has been dropped — epochs only grow, so it could never
	// become servable again — and counted.
	Invalidated
	// expired: the entry is past its TTL (and, for ServeStale, past the
	// stale window).
	expired
)

// Hit is a successful lookup's copy of the entry, taken under the shard
// lock.
type Hit[V any] struct {
	Value V
	// Remaining is the lifetime left at lookup time; zero means the
	// entry never expires.
	Remaining time.Duration
	// LastModified is set by Validator lookups only.
	LastModified time.Time

	ref *entry[V] // identity for Unhit
}

// Lookup runs the freshness ladder for k.
//
//lint:hotpath
func (e *Engine[V]) Lookup(k Key, mode mode) (Hit[V], status) {
	return e.ladder(k, mode, 0)
}

// Refresh re-arms the entry under k — expired or not — with ttl after
// the origin vouched for it (a 304 answer), and serves it. A zero ttl
// reuses the lifetime the entry was stored with rather than pinning it
// forever. Counted as a hit.
func (e *Engine[V]) Refresh(k Key, ttl time.Duration) (Hit[V], status) {
	return e.ladder(k, refresh, ttl)
}

// ladder is the one lookup rule: write-invalidated → drop; expired →
// retain or drop by mode; servable → move to front and copy out.
//
//lint:hotpath
func (e *Engine[V]) ladder(k Key, mode mode, ttl time.Duration) (h Hit[V], st status) {
	sh := e.shard(k)
	//lint:ignore hotpath the per-shard lock is the design: LRU move-to-front mutates on every hit, and sharding bounds contention
	sh.mu.Lock()
	en, ok := sh.table[k]
	if !ok {
		sh.mu.Unlock()
		if mode == Serve {
			e.m.Misses.Add(1)
		}
		return h, absent
	}
	if invalidate.Stale(en.stamps) {
		sh.removeLocked(en)
		sh.mu.Unlock()
		e.m.Invalidations.Add(1)
		if mode == Serve {
			e.m.Misses.Add(1)
		}
		return h, Invalidated
	}
	now := e.now()
	switch mode {
	case Serve:
		if en.expired(now) {
			if !e.retainLocked(en, now) {
				sh.removeLocked(en)
			}
			sh.mu.Unlock()
			e.m.Expirations.Add(1)
			e.m.Misses.Add(1)
			return h, expired
		}
	case ServeStale:
		if en.expired(now) && !e.withinStaleWindow(en, now) {
			sh.mu.Unlock()
			return h, expired
		}
	case Validator:
		st = absent
		if en.expired(now) && !en.lastModified.IsZero() {
			h.LastModified, st = en.lastModified, Found
		}
		sh.mu.Unlock()
		return h, st
	case refresh:
		if ttl == 0 {
			ttl = en.ttl
		}
		en.ttl = ttl
		en.expires = time.Time{}
		if ttl > 0 {
			en.expires = now.Add(ttl)
		}
	}
	sh.moveToFrontLocked(en)
	h.Value, h.ref = en.value, en
	if !en.expires.IsZero() {
		h.Remaining = en.expires.Sub(now)
	}
	sh.mu.Unlock()
	if mode != ServeStale {
		e.m.Hits.Add(1)
	}
	return h, Found
}

// withinStaleWindow reports whether an expired entry is still eligible
// for degraded serving at now.
func (e *Engine[V]) withinStaleWindow(en *entry[V], now time.Time) bool {
	return e.staleWindow > 0 && !now.After(en.expires.Add(e.staleWindow))
}

// retainLocked reports whether an expired entry must be kept for a
// later degraded use: revalidation (validator present) or stale serving
// (window not yet passed). Callers hold the entry's shard lock.
func (e *Engine[V]) retainLocked(en *entry[V], now time.Time) bool {
	if e.retainValidated && !en.lastModified.IsZero() {
		return true
	}
	return e.withinStaleWindow(en, now)
}

// Unhit re-books a Serve hit as a miss after the front end failed to
// materialize the value, and drops the entry if it is still the
// resident one, so the refill replaces it.
func (e *Engine[V]) Unhit(k Key, h Hit[V]) {
	sh := e.shard(k)
	sh.mu.Lock()
	if cur, ok := sh.table[k]; ok && cur == h.ref {
		sh.removeLocked(cur)
	}
	sh.mu.Unlock()
	e.m.Hits.Add(-1)
	e.m.Misses.Add(1)
}

// Insert stores it under k, replacing any entry already there, and
// evicts least-recently-used entries until the shard is back within its
// budget slice.
func (e *Engine[V]) Insert(k Key, it Item[V]) {
	en := &entry[V]{
		key: k, value: it.Value, size: it.Size,
		ttl: it.TTL, lastModified: it.LastModified, stamps: it.Stamps,
	}
	if it.TTL > 0 {
		en.expires = e.now().Add(it.TTL)
	}
	sh := e.shard(k)
	sh.mu.Lock()
	if old, ok := sh.table[k]; ok {
		sh.removeLocked(old)
	}
	sh.table[k] = en
	sh.pushFrontLocked(en)
	sh.nbytes.Add(int64(en.size))
	sh.nentries.Add(1)
	evicted := sh.evictLocked()
	sh.mu.Unlock()
	e.m.Stores.Add(1)
	if evicted > 0 {
		e.m.Evictions.Add(evicted)
	}
}

// remove drops the entry under k, if present.
func (e *Engine[V]) remove(k Key) {
	sh := e.shard(k)
	sh.mu.Lock()
	if en, ok := sh.table[k]; ok {
		sh.removeLocked(en)
	}
	sh.mu.Unlock()
}

// Sweep removes every reclaimable entry now and returns how many were
// removed. Write-invalidated entries can never be served again, so they
// go unconditionally. Expired entries kept for revalidation go too — a
// sweep is a reclamation decision that outranks that optimization — but
// entries still inside the stale window stay: they are the only answer
// if the backend fails, and the window bounds how long they linger.
//
// The sweep locks one shard at a time, so hits on the other shards
// proceed while a shard is being swept.
func (e *Engine[V]) Sweep() int {
	now := e.now()
	var invalidated, expired int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		// Walk the LRU list rather than the map to touch entries in a
		// deterministic order.
		for en := sh.head; en != nil; {
			next := en.next
			switch {
			case invalidate.Stale(en.stamps):
				sh.removeLocked(en)
				invalidated++
			case en.expired(now) && !e.withinStaleWindow(en, now):
				sh.removeLocked(en)
				expired++
			}
			en = next
		}
		sh.mu.Unlock()
	}
	e.m.Invalidations.Add(invalidated)
	e.m.Expirations.Add(expired)
	return int(invalidated + expired)
}

// Clear discards all entries, shard by shard.
func (e *Engine[V]) Clear() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.table = make(map[Key]*entry[V])
		sh.head, sh.tail = nil, nil
		sh.nbytes.Store(0)
		sh.nentries.Store(0)
		sh.mu.Unlock()
	}
}

// evictLocked removes least-recently-used entries until the shard is
// within its budget slice, returning how many went. Callers hold s.mu.
func (s *shard[V]) evictLocked() (evicted int64) {
	for s.tail != nil {
		over := (s.limEntries >= 0 && int(s.nentries.Load()) > s.limEntries) ||
			(s.limBytes >= 0 && int(s.nbytes.Load()) > s.limBytes)
		if !over {
			break
		}
		s.removeLocked(s.tail)
		evicted++
	}
	return evicted
}

// pushFrontLocked inserts e at the head of the LRU list. Callers hold
// s.mu.
func (s *shard[V]) pushFrontLocked(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// moveToFrontLocked marks e most recently used. Callers hold s.mu.
func (s *shard[V]) moveToFrontLocked(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}

// removeLocked deletes e from the table and list. Callers hold s.mu.
func (s *shard[V]) removeLocked(e *entry[V]) {
	delete(s.table, e.key)
	s.unlinkLocked(e)
	s.nbytes.Add(-int64(e.size))
	s.nentries.Add(-1)
	var zero V
	e.value = zero
}

// unlinkLocked detaches e from the list. Callers hold s.mu.
func (s *shard[V]) unlinkLocked(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
