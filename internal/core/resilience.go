package core

import (
	"errors"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/tier"
)

// This file holds the cache's fault-tolerance mechanics: stale-on-error
// degraded serving (Config.StaleIfError) and singleflight miss
// coalescing (Config.Coalesce). Both extend the paper's cache beyond
// its always-healthy-backend assumption; see DESIGN.md §5a.

// invokeCoalesced collapses concurrent misses on one key into one
// backend invocation (engine.Engine.Join). The first miss becomes the
// flight leader and runs the normal miss path; later misses wait for it
// and serve themselves from the cache the leader filled. A follower
// whose wait yields nothing usable (the leader's response was
// uncacheable, or its entry was already evicted) falls back to its own
// invocation rather than fail.
func (c *Cache) invokeCoalesced(d engine.Key, tk tier.Key, op OperationPolicy, ictx *client.Context, next client.Invoker) error {
	f, leader := c.eng.Join(d)
	if !leader {
		return c.followFlight(f, d, tk, op, ictx, next)
	}
	// Land in a defer so a dying leader — a panicking store, handler,
	// or transport anywhere down the chain — still releases its
	// followers instead of stranding them forever. The panic propagates
	// to the leader's caller; followers observe a nil flight error, find
	// no entry, and fall back to their own invocations.
	defer c.eng.Land(d, f)
	f.Err = c.invokeMiss(d, tk, op, ictx, next)
	return f.Err
}

// followFlight waits for the flight leader and serves the follower's
// invocation from the leader's outcome.
func (c *Cache) followFlight(f *engine.Flight, d engine.Key, tk tier.Key, op OperationPolicy, ictx *client.Context, next client.Invoker) error {
	var start time.Time
	if c.timed {
		start = c.now()
	}
	if err := f.Wait(ictx.Ctx); err != nil {
		if c.timed {
			c.reg.Stage(obs.StageCoalesceWait, "", c.now().Sub(start), err)
		}
		return err
	}
	if c.timed {
		c.reg.Stage(obs.StageCoalesceWait, "", c.now().Sub(start), f.Err)
	}
	c.m.coalesced.Add(1)

	if f.Err != nil {
		// The leader failed. The follower is as entitled to degraded
		// serving as the leader was; otherwise it shares the error.
		if result, ok := c.staleOnError(d, f.Err); ok {
			ictx.Result = result
			ictx.CacheHit = true
			ictx.ServedStale = true
			return nil
		}
		return f.Err
	}
	if result, ok := c.lookup(d); ok {
		ictx.Result = result
		ictx.CacheHit = true
		c.reg.Op(ictx.Operation).Hits.Add(1)
		return nil
	}
	// The leader succeeded but left nothing loadable (uncacheable
	// response, store error, or eviction under pressure). Do the work
	// ourselves; correctness outranks coalescing.
	return c.invokeMiss(d, tk, op, ictx, next)
}

// staleOnError serves a TTL-expired entry within the StaleIfError grace
// window after a backend failure. SOAP faults are excluded: a fault is
// an application-level answer from a live backend, and masking it with
// stale data would change program behaviour, not availability.
func (c *Cache) staleOnError(d engine.Key, err error) (any, bool) {
	if c.staleIfError <= 0 {
		return nil, false
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return nil, false
	}

	// ServeStale also serves a fresh entry (one can appear between the
	// miss and this recovery when another invocation refills the key).
	hit, st := c.eng.Lookup(d, engine.ServeStale)
	if st != engine.Found {
		if st == engine.Invalidated {
			// Degraded mode must never resurrect a write-invalidated
			// entry: its data provably predates a committed write, and
			// serving it would trade an availability gap for a
			// correctness violation. The refusal is counted so operators
			// can see degraded serving being denied by invalidation.
			c.m.staleRefused.Add(1)
		}
		return nil, false
	}
	c.m.staleServes.Add(1)
	return c.loadPayload(hit.Value)
}
