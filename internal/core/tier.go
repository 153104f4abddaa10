package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/tier"
)

// This file is the cache's two tier roles (DESIGN.md §5h).
//
// Client side (Config.Tiers): between an L1 miss and the backend
// invocation the cache consults remote tiers. A tier hit materializes
// the consumer's result from the wire bytes (rep.Selector.LoadWire),
// serves it, and fills L1 with it exactly as an origin response is
// filled — through the L1's own representation choice, so a promoted
// entry is held in the representation an origin fill would pick, not
// in the wire form. The response-processing cost is paid once per
// fleet instead of once per process. A tier miss falls through to the
// origin, and the fill then writes through to the tiers in the wire
// representation the rep.Selector picks (per-tier representation
// selection: L1 keeps the full Table 3 menu, remote tiers get the
// byte-oriented subset).
//
// Server side: Cache embeds engine.Tier — the implementation
// cmd/wscached serves — so a cluster.Server can expose an in-process
// cache as a shared daemon.

// tierCounters are the per-tier traffic counters, exposed through the
// "tiers" inspection alongside each tier's own TierStats. Plain
// atomics rather than obs counters: a metric name would have to carry
// the tier's runtime name, and obs registry names are compile-time
// constants by convention.
type tierCounters struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	errors atomic.Uint64
	stores atomic.Uint64
}

// tierServe tries each remote tier in order. On a hit it fills ictx
// from the entry as the pivot would have — ictx.Result is then the
// caller's own — fills L1 from it carrying the entry's remaining TTL
// (zero = no expiry, matching the daemon), and reports true. All
// failures are soft: a broken tier or an entry that does not decode
// behaves like a miss.
//
// The promotion stamps are snapshotted BEFORE the first tier contact —
// the same snapshot-before-read ordering every fill path obeys. A
// local write committing while the tier round trip is in flight bumps
// its epochs past this snapshot, so the promoted entry is born stale
// and the next lookup refetches; stamping after the Get instead would
// mint fresh stamps onto a value the tier served before it learned of
// that write. Conservative misses, never stale hits.
func (c *Cache) tierServe(d engine.Key, tk tier.Key, op OperationPolicy, ictx *client.Context) bool {
	ctx := ictx.Ctx
	stamps := c.readStamps(ictx)
	for i := range c.tiers {
		t := c.tiers[i]
		var start time.Time
		if c.timed {
			start = c.now()
		}
		e, ok, err := t.Get(ctx, tk)
		if c.timed {
			c.reg.Stage(obs.StageTierGet, t.Name(), c.now().Sub(start), err)
		}
		if err != nil {
			c.m.tierErrors.Add(1)
			c.tierm[i].errors.Add(1)
			continue
		}
		if !ok {
			c.tierm[i].misses.Add(1)
			continue
		}
		if err := c.wire.LoadWire(e.Rep, e.Value, ictx); err != nil {
			c.m.tierErrors.Add(1)
			c.tierm[i].errors.Add(1)
			continue
		}
		c.tierm[i].hits.Add(1)
		c.m.tierHits.Add(1)
		c.fill(d, op, ictx, e.TTL, stamps, &e)
		return true
	}
	return false
}

// tierStamps snapshots, per configured tier, the epochs that tier is
// believed to hold for the invocation's read set; nil when the
// operation declares none. Like readStamps it MUST run before the
// backend read: the snapshot is what makes a fill racing a concurrent
// write refusable at the daemon.
func (c *Cache) tierStamps(tk tier.Key, ictx *client.Context) [][]tier.Stamp {
	if c.inval == nil {
		return nil
	}
	names := c.inval.ReadSet(ictx.Operation, ictx.Params)
	if len(names) == 0 {
		return nil
	}
	out := make([][]tier.Stamp, len(c.tiers))
	for i, t := range c.tiers {
		out[i] = t.PutStamps(tk, names)
	}
	return out
}

// wireScratch holds the buffers tierFill encodes wire values into. A
// tier.Tier borrows Entry.Value only until Put returns, so a buffer
// goes back to the pool once every tier has been written, and the
// write-through allocates nothing for the value on this side. A buffer
// one large value grew past maxPooledWire is dropped instead, as
// binser's own scratch is, so it is not pinned for the process's life.
var wireScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledWire = 64 << 10

// tierFill writes a fresh origin response through to the remote tiers
// in the selected wire representation. Failures are soft and counted;
// the local fill already happened.
func (c *Cache) tierFill(tk tier.Key, op OperationPolicy, ictx *client.Context, stamps [][]tier.Stamp) {
	if len(c.tiers) == 0 {
		return
	}
	var start time.Time
	if c.timed {
		start = c.now()
	}
	sp := wireScratch.Get().(*[]byte)
	defer func() {
		if cap(*sp) <= maxPooledWire {
			wireScratch.Put(sp)
		}
	}()
	repName, data, err := c.wire.AppendWire((*sp)[:0], ictx)
	*sp = data[:0]
	if c.timed {
		c.reg.Stage(obs.StageTierPut, repName, c.now().Sub(start), err)
	}
	if err != nil {
		// No wire-capable representation holds this result (or encoding
		// failed); the result stays L1-only.
		c.m.tierErrors.Add(1)
		return
	}
	ttl := c.entryTTL(op, ictx)
	ctx := ictx.Ctx
	for i, t := range c.tiers {
		e := tier.Entry{Rep: repName, Value: data, TTL: ttl}
		if stamps != nil {
			e.Stamps = stamps[i]
		}
		if err := t.Put(ctx, tk, e); err != nil {
			c.m.tierErrors.Add(1)
			c.tierm[i].errors.Add(1)
			continue
		}
		c.tierm[i].stores.Add(1)
	}
}
