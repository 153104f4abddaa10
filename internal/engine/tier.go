package engine

import (
	"context"
	"errors"

	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/tier"
)

// wire is the value of an entry held for remote clients: the chosen
// representation's name and its encoded bytes, exactly as they travel.
// Entries arrive already encoded and are served back verbatim; the
// holder never decodes them.
type wire struct {
	Rep  string
	Data []byte
}

// Tier is the daemon side of the tier protocol (DESIGN.md §5h): an
// engine of wire entries behind tier.Tier. cmd/wscached serves one over
// the cluster protocol; core.Cache embeds one, so an in-process cache
// handed to cluster.NewServer runs the code the binary runs. It stamps
// fills against its own epoch table and refuses those a committed write
// has overtaken — born-stale entries never enter the shared tier.
type Tier struct {
	eng     *Engine[wire]
	inv     *invalidate.Invalidator
	refused *obs.Counter
	errors  *obs.Counter
}

var _ tier.Tier = (*Tier)(nil)

// NewTier builds a tier over a fresh engine, counting into reg under
// the "core.*" names (see CoreCounters). inv is the epoch table fills
// are checked against — the one the cluster.Server in front of this
// tier serves — and may be nil for a tier that holds only entries with
// no dependencies.
func NewTier(cfg Config, inv *invalidate.Invalidator, reg *obs.Registry) *Tier {
	// A daemon's /debug/wscache page has always listed the whole core.*
	// family, the client-side counters at zero; consumers join on the
	// full set, so register the ones no tier increments too.
	reg.Counter("core.revalidations")
	reg.Counter("core.stale_serves")
	reg.Counter("core.stale_refused")
	reg.Counter("core.coalesced")
	reg.Counter("core.bypass")
	reg.Counter("core.tier_hits")
	reg.Counter("core.tier_errors")
	return &Tier{
		eng:     New[wire](cfg, CoreCounters(reg)),
		inv:     inv,
		refused: reg.Counter("core.tier_put_refused"),
		errors:  reg.Counter("core.errors"),
	}
}

// Name implements tier.Tier: "l1", the in-process table's label in the
// "tiers" inspection since it lived in core.Cache.
func (t *Tier) Name() string { return "l1" }

// Len returns the current number of entries, lock-free.
func (t *Tier) Len() int { return t.eng.Len() }

// Clear discards all entries.
func (t *Tier) Clear() { t.eng.Clear() }

// SweepExpired reclaims expired and write-invalidated entries now (see
// Engine.Sweep) and returns how many went.
func (t *Tier) SweepExpired() int { return t.eng.Sweep() }

// Get implements tier.Tier: the serving ladder by tier key. The
// returned TTL is the remaining lifetime, so a promoting client cannot
// outlive the holder's own deadline.
func (t *Tier) Get(_ context.Context, k tier.Key) (tier.Entry, bool, error) {
	h, st := t.eng.Lookup(Key(k), Serve)
	if st != Found {
		return tier.Entry{}, false, nil
	}
	return tier.Entry{Rep: h.Value.Rep, Value: h.Value.Data, TTL: h.Remaining}, true, nil
}

// PutStamps implements tier.Tier: the current epochs of the keyspaces,
// the snapshot a client takes (through the cluster protocol, via its
// mirror) before the backend read it intends to cache.
func (t *Tier) PutStamps(_ tier.Key, keyspaces []string) []tier.Stamp {
	stamps := make([]tier.Stamp, len(keyspaces))
	for i, ks := range keyspaces {
		stamps[i] = tier.Stamp{Keyspace: ks}
		if t.inv != nil {
			stamps[i].Epoch = t.inv.Epoch(invalidate.Keyspace(ks))
		}
	}
	return stamps
}

// Put implements tier.Tier: store an already-encoded entry under the
// sender's pre-read epoch snapshot. A snapshot any committed write has
// overtaken makes the entry born-stale — it is refused (silently;
// refusal is the protocol working, not an error) rather than stored
// and filtered later, so a daemon restart or slow client can never
// park a stale value where the whole fleet would find it. te.Value is
// borrowed (tier.Tier): an entry that is kept gets its own copy, at
// exactly its length, taken only once the stamps have let it in.
func (t *Tier) Put(_ context.Context, k tier.Key, te tier.Entry) error {
	var stamps invalidate.Stamps
	if t.inv != nil && len(te.Stamps) > 0 {
		for _, s := range te.Stamps {
			stamps = stamps.With(t.inv.StampWith(invalidate.Keyspace(s.Keyspace), s.Epoch))
		}
		if invalidate.Stale(stamps) {
			t.refused.Add(1)
			return nil
		}
	}
	data := make([]byte, len(te.Value))
	copy(data, te.Value)
	t.eng.Insert(Key(k), Item[wire]{
		Value:  wire{Rep: te.Rep, Data: data},
		Size:   len(data) + len(te.Rep),
		TTL:    te.TTL,
		Stamps: stamps,
	})
	return nil
}

// Delete implements tier.Tier.
func (t *Tier) Delete(_ context.Context, k tier.Key) error {
	t.eng.remove(Key(k))
	return nil
}

// BumpEpoch implements tier.Tier: apply epoch advances pushed by a
// remote process. ApplyRemote (not Bump) so the holder's own OnBump
// hooks — if any — do not re-broadcast a bump that originated
// elsewhere.
func (t *Tier) BumpEpoch(_ context.Context, keyspaces []string) error {
	if t.inv == nil {
		return errors.New("engine: tier has no invalidator; epoch bumps cannot be applied")
	}
	for _, ks := range keyspaces {
		t.inv.ApplyRemote(invalidate.Keyspace(ks))
	}
	return nil
}

// TierStats implements tier.Tier.
func (t *Tier) TierStats() tier.Stats {
	m := t.eng.m
	return tier.Stats{
		Hits:    m.Hits.Load(),
		Misses:  m.Misses.Load(),
		Stores:  m.Stores.Load(),
		Errors:  t.errors.Load(),
		Entries: t.eng.Len(),
		Bytes:   t.eng.Bytes(),
	}
}
