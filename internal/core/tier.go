package core

import (
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/tier"
)

// This file is the cache's two tier roles (DESIGN.md §5h).
//
// Client side (Config.Tiers): between an L1 miss and the backend
// invocation the cache consults remote tiers. A tier hit decodes the
// wire representation, promotes the payload into L1, and serves it —
// the response-processing cost is paid once per fleet instead of once
// per process. A tier miss falls through to the origin, and the fill
// then writes through to the tiers in the wire representation the
// rep.Selector picks (per-tier representation selection: L1 keeps the
// full Table 3 menu, remote tiers get the byte-oriented subset).
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

// tierServe tries each remote tier in order. On a hit it decodes the
// entry, promotes it into L1, and returns the materialized result. All
// failures are soft: a broken tier behaves like a miss.
//
// The promotion stamps are snapshotted BEFORE the first tier contact —
// the same snapshot-before-read ordering every fill path obeys. A
// local write committing while the tier round trip is in flight bumps
// its epochs past this snapshot, so the promoted entry is born stale
// and the next lookup refetches; stamping after the Get instead would
// mint fresh stamps onto a value the tier served before it learned of
// that write. Conservative misses, never stale hits.
func (c *Cache) tierServe(d engine.Key, tk tier.Key, ictx *client.Context) (any, bool) {
	ctx := ictx.Ctx
	stamps := c.readStamps(ictx)
	for i := range c.tiers {
		t := c.tiers[i]
		start := c.now()
		e, ok, err := t.Get(ctx, tk)
		dur := c.now().Sub(start)
		if c.timed {
			c.observe(ictx.Operation, obs.StageTierGet, t.Name(), dur, err)
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
		// Feed the measured round trip into the wire cost model: the
		// selector learns what a remote byte costs and biases future wire
		// choices toward compact representations when the network is the
		// bottleneck.
		c.wire.ObserveNet(dur, len(e.Value))
		payload, store, err := c.wire.LoadWire(e.Rep, e.Value)
		if err != nil {
			c.m.tierErrors.Add(1)
			c.tierm[i].errors.Add(1)
			continue
		}
		c.tierm[i].hits.Add(1)
		c.m.tierHits.Add(1)
		// Promote into L1 carrying the tier entry's remaining TTL (zero =
		// no expiry, matching the daemon).
		v := value{payload: payload, store: store}
		c.eng.Insert(d, engine.Item[value]{
			Value:  v,
			Size:   len(e.Value),
			TTL:    e.TTL,
			Stamps: stamps,
		})
		if result, ok := c.loadPayload(ictx.Operation, v, c.m.tierErrors); ok {
			return result, true
		}
	}
	return nil, false
}

// tierStamps snapshots, per configured tier, the epochs that tier is
// believed to hold for the invocation's read set. Like readStamps it
// MUST run before the backend read: the snapshot is what makes a fill
// racing a concurrent write refusable at the daemon.
func (c *Cache) tierStamps(tk tier.Key, ictx *client.Context) [][]tier.Stamp {
	if len(c.tiers) == 0 {
		return nil
	}
	out := make([][]tier.Stamp, len(c.tiers))
	if c.inval == nil {
		return out
	}
	set := c.inval.ReadSet(ictx.Operation, ictx.Params)
	if len(set) == 0 {
		return out
	}
	names := make([]string, len(set))
	for i, ks := range set {
		names[i] = string(ks)
	}
	for i, t := range c.tiers {
		out[i] = t.PutStamps(tk, names)
	}
	return out
}

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
	repName, data, _, err := c.wire.StoreWire(ictx)
	if c.timed {
		c.observe(ictx.Operation, obs.StageTierPut, repName, c.now().Sub(start), err)
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

// resolveWire picks the selector that encodes and decodes tier entries:
// the store itself when it is one, else a static selector over the
// registry (Validate has guaranteed one of the two).
func resolveWire(store rep.ValueStore, reg *rep.Registry) *rep.Selector {
	if sel, ok := store.(*rep.Selector); ok {
		return sel
	}
	return rep.NewStaticSelector(reg)
}
