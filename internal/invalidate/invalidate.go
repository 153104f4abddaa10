// Package invalidate is the dependency-aware invalidation layer the
// paper's per-operation TTL (Section 3.2) stops short of: operations
// declare which keyspaces they read and which they write, forming an
// invalidation graph, and every keyspace carries a monotonically
// increasing epoch. A write-through call bumps the epochs of the
// keyspaces it writes; cache entries carry the epoch values their read
// keyspaces had when the entry was filled, and a hit whose stamped
// epochs no longer match is stale and must be treated as a miss.
//
// The scheme follows the method-cache invalidation model of Pfeifer &
// Lockemann ("Theory and Practice of Transactional Method Caching"):
// read/write dependencies are declared per method (operation), and
// correctness is conservative — any doubt invalidates.
//
// Ordering guarantee. Entries are stamped with epochs snapshotted
// BEFORE the backend read is issued, and writers bump AFTER the backend
// write has completed. A read that races a write is therefore always
// stamped with the pre-write epoch and invalidated by the bump, even if
// the backend happened to serve it post-write data; a read that
// snapshots the post-bump epoch can only observe post-write backend
// state. The net effect is the stale-after-write invariant: once a
// write to a keyspace has committed, no later-starting read can be
// served data predating that write. Conservative misses (a fresh fill
// invalidated by a concurrent bump) are possible; stale serves are not.
//
// Operations with no declared sets are untouched: their entries carry
// no stamps and stay on the pull-based fallback ladder (TTL, then
// If-Modified-Since/304 revalidation) the cache already implements.
package invalidate

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/soap"
)

// Keyspace names one unit of dependency: a resource family whose
// version advances when any member is written. Granularity is the
// declarer's choice — "items" invalidates coarsely (any write clears
// every dependent read), "item:k" invalidates one key. An operation may
// depend on several keyspaces at different granularities.
type Keyspace string

// SetFunc resolves one invocation's parameters to the keyspaces it
// touches. Implementations must be pure and safe for concurrent use:
// they run on the request path, once per miss (reads) or write-through
// call (writes).
type SetFunc func(params []soap.Param) []Keyspace

// Fixed returns a SetFunc naming the same keyspaces regardless of
// parameters — the coarse whole-resource dependency.
func Fixed(ks ...Keyspace) SetFunc {
	return func([]soap.Param) []Keyspace { return ks }
}

// Graph holds the declared read and write sets of an operation
// vocabulary. Declare during wiring, before traffic; declarations are
// nevertheless safe to add at run time.
type Graph struct {
	mu     sync.RWMutex
	reads  map[string]SetFunc
	writes map[string]SetFunc
}

// NewGraph returns an empty invalidation graph.
func NewGraph() *Graph {
	return &Graph{
		reads:  make(map[string]SetFunc),
		writes: make(map[string]SetFunc),
	}
}

// Read declares the keyspaces operation op reads. Entries cached for op
// are stamped with these keyspaces' epochs and invalidated when any of
// them is written.
func (g *Graph) Read(op string, f SetFunc) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reads[op] = f
	return g
}

// Write declares the keyspaces operation op writes. A successful (or
// unknown-outcome) invocation of op bumps their epochs.
func (g *Graph) Write(op string, f SetFunc) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes[op] = f
	return g
}

// readSet resolves op's read keyspaces, nil when undeclared.
func (g *Graph) readSet(op string, params []soap.Param) []Keyspace {
	g.mu.RLock()
	f := g.reads[op]
	g.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(params)
}

// writeSet resolves op's write keyspaces, nil when undeclared.
func (g *Graph) writeSet(op string, params []soap.Param) []Keyspace {
	g.mu.RLock()
	f := g.writes[op]
	g.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(params)
}

// Declared reports whether op has a declared read or write set: its
// responses depend on, or its calls change, state the graph tracks. A
// cache with no invalidator behind it can safely hold only the
// operations for which this is false.
func (g *Graph) Declared(op string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.reads[op] != nil || g.writes[op] != nil
}

// WritesDeclared reports whether op has a declared write set.
func (g *Graph) WritesDeclared(op string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.writes[op] != nil
}

// epoch is one keyspace's version cell. Cells are created on first
// touch and live for the Invalidator's lifetime (16 bytes per
// keyspace); deployments with unbounded per-key keyspaces should prefer
// coarser families or recycle the Invalidator with the cache.
type epoch struct {
	v atomic.Uint64
}

// Stamp records the value one epoch cell had when an entry was filled.
// The zero Stamp is invalid; stamps are only produced by ReadStamps.
type Stamp struct {
	cell *epoch
	seen uint64
}

// Stale reports whether any stamped epoch has advanced past its
// recorded value — the entry depends on a keyspace that has been
// written since the fill. A nil or empty stamp slice is never stale
// (the entry has no declared dependencies). The check is a handful of
// atomic loads, cheap enough for the hit path.
func Stale(stamps []Stamp) bool {
	for i := range stamps {
		if stamps[i].cell.v.Load() != stamps[i].seen {
			return true
		}
	}
	return false
}

// Invalidator binds a Graph to a live epoch table and the metrics that
// make invalidation observable. One Invalidator is shared by every
// cache that must see the same writes (typically one per process per
// backend).
type Invalidator struct {
	graph *Graph
	cells sync.Map // Keyspace -> *epoch

	// version counts every epoch mutation this Invalidator has applied,
	// local or remote. It is the cheap "has anything changed" cursor the
	// cluster protocol compares across processes: a daemon stamps every
	// response with its version, and a client whose mirror is behind
	// fetches the full epoch table.
	version atomic.Uint64

	// hookMu guards onBump. Hooks are registered during wiring but the
	// slice is read on every commit, so registration is also safe at
	// run time.
	hookMu sync.Mutex
	onBump []func([]Keyspace)

	// writesCommitted counts write-through commits that bumped at least
	// zero keyspaces; bumps counts individual keyspace bumps, and
	// remoteBumps the subset applied on behalf of another process via
	// ApplyRemote.
	writesCommitted *obs.Counter
	bumps           *obs.Counter
	remoteBumps     *obs.Counter
}

// New builds an Invalidator over graph, recording its counters into reg
// (which may be nil for an unobserved instance) under
// "invalidate.writes" and "invalidate.bumps", and exporting the live
// keyspace→epoch table as the "invalidation" inspection on
// /debug/wscache.
func New(graph *Graph, reg *obs.Registry) *Invalidator {
	if graph == nil {
		graph = NewGraph()
	}
	inv := &Invalidator{
		graph:           graph,
		writesCommitted: reg.Counter("invalidate.writes"),
		bumps:           reg.Counter("invalidate.bumps"),
		remoteBumps:     reg.Counter("invalidate.remote_bumps"),
	}
	reg.SetInspection("invalidation", func() any { return inv.Snapshot() })
	return inv
}

// cell returns (creating if needed) the epoch cell for a keyspace.
func (inv *Invalidator) cell(ks Keyspace) *epoch {
	if v, ok := inv.cells.Load(ks); ok {
		return v.(*epoch)
	}
	v, _ := inv.cells.LoadOrStore(ks, &epoch{})
	return v.(*epoch)
}

// ReadStamps snapshots the current epochs of op's read keyspaces, nil
// when op declares none. The caller must take the snapshot BEFORE
// issuing the backend read it will cache (see the package ordering
// guarantee) and attach the stamps to the filled entry.
func (inv *Invalidator) ReadStamps(op string, params []soap.Param) []Stamp {
	ks := inv.graph.readSet(op, params)
	if len(ks) == 0 {
		return nil
	}
	stamps := make([]Stamp, len(ks))
	for i, k := range ks {
		c := inv.cell(k)
		stamps[i] = Stamp{cell: c, seen: c.v.Load()}
	}
	return stamps
}

// WritesDeclared reports whether op has a declared write set — the
// cheap pre-check callers use to skip CommitWrite bookkeeping for
// read-only operations.
func (inv *Invalidator) WritesDeclared(op string) bool {
	return inv.graph.WritesDeclared(op)
}

// CommitWrite bumps the epochs of op's write keyspaces and returns how
// many were bumped (0 when op declares no write set). Call it after the
// write-through invocation has completed — on success, and also on
// transport-level failure where the write may have reached the backend
// (unknown outcome invalidates conservatively); skip it only when the
// backend provably rejected the write (e.g. a SOAP fault).
func (inv *Invalidator) CommitWrite(op string, params []soap.Param) int {
	ks := inv.graph.writeSet(op, params)
	if len(ks) == 0 {
		return 0
	}
	// Hooks fire BEFORE the local cells advance — see OnBump for why the
	// order is load-bearing.
	inv.fireOnBump(ks)
	for _, k := range ks {
		inv.cell(k).v.Add(1)
		inv.version.Add(1)
	}
	inv.bumps.Add(int64(len(ks)))
	inv.writesCommitted.Add(1)
	return len(ks)
}

// Bump advances a keyspace's epoch directly — the hook for out-of-band
// invalidation signals (an operator action, a server-push channel)
// that do not flow through a declared operation.
func (inv *Invalidator) Bump(ks Keyspace) {
	// Hooks first, then the local advance — same order as CommitWrite,
	// for the same reason (see OnBump).
	inv.fireOnBump([]Keyspace{ks})
	inv.cell(ks).v.Add(1)
	inv.version.Add(1)
	inv.bumps.Add(1)
}

// OnBump registers a hook fired on a LOCAL epoch advance (CommitWrite
// or Bump) with the keyspaces being bumped. The L2 remote tier
// registers one to push the bump to the shared daemon synchronously,
// before the write-through call returns, so the stale-after-write
// invariant extends across the wire.
//
// Hooks fire BEFORE the local cells advance, and the order is
// load-bearing: it makes "this process's stamps are fresh with respect
// to write W" imply "the shared daemon has already seen W's bump". A
// hit the daemon serves to a reader holding post-W stamps therefore
// cannot predate W — the daemon's own stamp check would have dropped
// it. With the opposite order there is a window (local cells advanced,
// push not yet landed) where a reader snapshots post-W stamps, finds
// nothing pending to flush, and promotes the daemon's pre-W entry into
// L1 under stamps no later write has overtaken: a stale value with a
// fresh badge. Between the hook and the local advance, concurrent
// readers may still serve the pre-W value locally — the write has not
// returned yet, so that is linearizable, not stale. Hooks run on the
// committing goroutine and must not call back into the Invalidator's
// local-bump methods.
func (inv *Invalidator) OnBump(f func(keyspaces []Keyspace)) {
	inv.hookMu.Lock()
	inv.onBump = append(inv.onBump, f)
	inv.hookMu.Unlock()
}

// fireOnBump runs the registered hooks for a local bump.
func (inv *Invalidator) fireOnBump(ks []Keyspace) {
	inv.hookMu.Lock()
	hooks := inv.onBump
	inv.hookMu.Unlock()
	for _, f := range hooks {
		f(ks)
	}
}

// ApplyRemote advances a keyspace's epoch on behalf of another
// process — the receive side of cluster epoch propagation. It
// deliberately does NOT fire OnBump hooks: the bump originated
// elsewhere and re-pushing it would echo forever between processes.
func (inv *Invalidator) ApplyRemote(ks Keyspace) {
	inv.cell(ks).v.Add(1)
	inv.version.Add(1)
	inv.bumps.Add(1)
	inv.remoteBumps.Add(1)
}

// InvalidateAll advances every existing epoch cell — the conservative
// hammer for "our view of the world may be stale in ways we cannot
// enumerate", e.g. a shared daemon restarted and any bumps pushed to
// the old incarnation are lost. Entries with no stamps (operations
// with no declared read set) are unaffected, exactly as they are
// unaffected by ordinary bumps. No hooks fire.
func (inv *Invalidator) InvalidateAll() {
	n := int64(0)
	inv.cells.Range(func(_, v any) bool {
		v.(*epoch).v.Add(1)
		inv.version.Add(1)
		n++
		return true
	})
	inv.bumps.Add(n)
}

// Version returns the count of epoch mutations applied so far; it
// only grows. Equal versions mean "no epoch has changed in between";
// the cluster protocol uses it to skip epoch-table transfers.
func (inv *Invalidator) Version() uint64 { return inv.version.Load() }

// ReadSet resolves op's declared read keyspaces for these parameters,
// nil when undeclared — the names a tier fill attaches to the entry so
// a remote tier can stamp it against its own epoch table.
func (inv *Invalidator) ReadSet(op string, params []soap.Param) []Keyspace {
	return inv.graph.readSet(op, params)
}

// StampWith returns a stamp binding ks's cell (creating it if needed)
// to a caller-supplied observed epoch, rather than the current one.
// It is how a daemon adopts a client's pre-read snapshot: the client
// reports the epoch it saw for ks before its backend read, and the
// resulting stamp is live — if the daemon's cell has advanced past
// seen (or advances later), Stale reports it.
func (inv *Invalidator) StampWith(ks Keyspace, seen uint64) Stamp {
	return Stamp{cell: inv.cell(ks), seen: seen}
}

// Epoch returns a keyspace's current epoch (0 if never touched).
func (inv *Invalidator) Epoch(ks Keyspace) uint64 {
	if v, ok := inv.cells.Load(ks); ok {
		return v.(*epoch).v.Load()
	}
	return 0
}

// Snapshot captures the live keyspace→epoch table, sorted-key iteration
// left to the consumer (JSON objects are unordered anyway).
func (inv *Invalidator) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	inv.cells.Range(func(k, v any) bool {
		out[string(k.(Keyspace))] = v.(*epoch).v.Load()
		return true
	})
	return out
}

// Keyspaces returns the sorted names of every keyspace that has an
// epoch cell, for diagnostics.
func (inv *Invalidator) Keyspaces() []Keyspace {
	var out []Keyspace
	inv.cells.Range(func(k, _ any) bool {
		out = append(out, k.(Keyspace))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
