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
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/tier"
)

// Keyspace names one unit of dependency: a resource family whose
// version advances when any member is written. Granularity is the
// declarer's choice — "items" invalidates coarsely (any write clears
// every dependent read), "item:k" invalidates one key. An operation may
// depend on several keyspaces at different granularities.
type Keyspace string

// set declares the keyspaces an operation touches, as data: each member
// is either a fixed name (Fixed) or a constant prefix followed by the
// value of one string parameter (Param). Resolving a set runs on the
// request path, once per miss (reads) or write-through call (writes);
// because a set is data, the read side resolves it without allocating
// (ReadStamps).
type set []member

// member is one declared keyspace: prefix alone when param is "", else
// prefix followed by the string value of the parameter named param,
// or, when no parameter has that name, of the one at position pos.
type member struct {
	prefix Keyspace
	param  string
	pos    int
}

// Fixed returns a set naming the same keyspaces regardless of
// parameters — the coarse whole-resource dependency.
func Fixed(ks ...Keyspace) set {
	s := make(set, len(ks))
	for i, k := range ks {
		s[i] = member{prefix: k}
	}
	return s
}

// Param returns a set of one keyspace per invocation: prefix followed
// by the value of the string parameter named name, or, when no
// parameter has that name, of the one at position pos — the lookup the
// SOAP dispatcher itself applies; a negative pos looks by name alone.
// An invocation whose parameter is absent or not a string has no
// keyspace from this member.
func Param(prefix Keyspace, name string, pos int) set {
	return set{{prefix: prefix, param: name, pos: pos}}
}

// appendName appends m's keyspace name for params to dst, in its
// bounded form (see maxKeyspaceName); ok is false when m's parameter is
// absent or not a string.
func (m member) appendName(dst []byte, params []soap.Param) (_ []byte, ok bool) {
	dst = append(dst, m.prefix...)
	if m.param != "" {
		v, ok := paramValue(params, m.param, m.pos)
		if !ok {
			return dst, false
		}
		dst = append(dst, v...)
	}
	if len(dst) > maxKeyspaceName {
		dst = append(dst[:0], boundName(Keyspace(dst))...)
	}
	return dst, true
}

// paramValue returns the string value of the parameter named name,
// else of the one at position pos.
func paramValue(params []soap.Param, name string, pos int) (string, bool) {
	for _, p := range params {
		if p.Name == name {
			s, ok := p.Value.(string)
			return s, ok
		}
	}
	if pos >= 0 && pos < len(params) {
		s, ok := params[pos].Value.(string)
		return s, ok
	}
	return "", false
}

// appendNames appends the names s resolves to for params.
func appendNames[T ~string](dst []T, s set, params []soap.Param) []T {
	var buf [maxKeyspaceName]byte
	for _, m := range s {
		if name, ok := m.appendName(buf[:0], params); ok {
			dst = append(dst, T(name))
		}
	}
	return dst
}

// Graph holds the declared read and write sets of an operation
// vocabulary. Declare during wiring, before traffic; declarations are
// nevertheless safe to add at run time.
type Graph struct {
	mu     sync.RWMutex
	reads  map[string]set
	writes map[string]set
}

// NewGraph returns an empty invalidation graph.
func NewGraph() *Graph {
	return &Graph{
		reads:  make(map[string]set),
		writes: make(map[string]set),
	}
}

// Read declares the keyspaces operation op reads, the union of sets.
// Entries cached for op are stamped with these keyspaces' epochs and
// invalidated when any of them is written.
func (g *Graph) Read(op string, sets ...set) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reads[op] = union(sets)
	return g
}

// Write declares the keyspaces operation op writes, the union of sets.
// A successful (or unknown-outcome) invocation of op bumps their
// epochs.
func (g *Graph) Write(op string, sets ...set) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes[op] = union(sets)
	return g
}

func union(sets []set) set {
	var u set
	for _, s := range sets {
		u = append(u, s...)
	}
	return u
}

// readSet returns op's declared read set, nil when undeclared.
func (g *Graph) readSet(op string) set {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.reads[op]
}

// writeSet resolves op's write keyspaces, nil when undeclared.
func (g *Graph) writeSet(op string, params []soap.Param) []Keyspace {
	g.mu.RLock()
	s := g.writes[op]
	g.mu.RUnlock()
	if len(s) == 0 {
		return nil
	}
	return appendNames[Keyspace](nil, s, params)
}

// maxKeyspaceName bounds the keyspace names the graph hands out. The
// shared tier's wire carries a name with a u16 length, so one longer
// name would leave a bump no frame can carry, and every later flush to
// that daemon would fail. A name over the bound becomes its first bytes
// plus '#' and the 128-bit FNV-1a digest of the whole name (tier.KeyOf,
// a fixed function every process computes alike), maxKeyspaceName bytes
// in all. Names that collide share one epoch: that invalidates more,
// never less.
const maxKeyspaceName = 256

// boundName returns k's bounded form.
func boundName(k Keyspace) Keyspace {
	if len(k) <= maxKeyspaceName {
		return k
	}
	d := tier.KeyOf([]byte(k))
	return Keyspace(fmt.Sprintf("%s#%016x%016x", k[:maxKeyspaceName-33], d.Hi, d.Lo))
}

// Declared reports whether op has a declared read or write set: its
// responses depend on, or its calls change, state the graph tracks. A
// cache with no invalidator behind it can safely hold only the
// operations for which this is false.
func (g *Graph) Declared(op string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.reads[op]) > 0 || len(g.writes[op]) > 0
}

// writesDeclared reports whether op has a declared write set.
func (g *Graph) writesDeclared(op string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.writes[op]) > 0
}

// epoch is one keyspace's version cell. Cells are created on first
// touch and live for the Invalidator's lifetime (the 8-byte cell plus
// its slot in the cell table, about 60 bytes per keyspace besides the
// name's own bytes); deployments with unbounded per-key keyspaces
// should prefer coarser families or recycle the Invalidator with the
// cache.
type epoch struct {
	v atomic.Uint64
}

// journalCap bounds the journal Since replays: the changes behind the
// last journalCap epoch mutations. A follower further behind than that
// gets !ok and falls back to the whole table.
const journalCap = 1024

// change is one journaled epoch mutation: keyspace ks's cell advanced
// to epoch. Records are consecutive, so a record's version is implied
// by its slot.
type change struct {
	ks    Keyspace
	cell  *epoch
	epoch uint64
}

// stamp records the value one epoch cell had when an entry was filled.
// The zero stamp is invalid; stamps are only produced by ReadStamps and
// StampWith.
type stamp struct {
	cell *epoch
	seen uint64
}

// Stamps is an entry's read-set snapshot: the first stamp inline and
// each further one in a node of its own, 24 bytes in all, like the
// slice header it replaces. A read set of one keyspace, the common
// per-item dependency, is snapshotted without allocating. The zero
// value is the empty set: an entry with no declared dependencies.
type Stamps struct {
	first stamp
	rest  *Stamps
}

// With returns s plus st.
func (s Stamps) With(st stamp) Stamps {
	if s.first.cell == nil {
		return Stamps{first: st}
	}
	rest := s // declared here, so only this branch allocates
	return Stamps{first: st, rest: &rest}
}

// Stale reports whether any stamped epoch has advanced past its
// recorded value — the entry depends on a keyspace that has been
// written since the fill. An empty set is never stale (the entry has
// no declared dependencies). The check is a handful of atomic loads,
// cheap enough for the hit path.
func Stale(s Stamps) bool {
	if s.first.cell == nil {
		return false
	}
	for p := &s; p != nil; p = p.rest {
		if p.first.cell.v.Load() != p.first.seen {
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

	// cellsMu guards cells, the keyspace→cell table. A cell is never
	// removed or replaced once created, so a *epoch handed out in a
	// stamp or a journal record is read without any lock (Stale,
	// Since). Lookups of an existing cell — a stamp snapshot on every
	// miss, an adopted stamp on every daemon fill — far outnumber
	// creations, hence the read lock.
	cellsMu sync.RWMutex
	cells   map[Keyspace]*epoch

	// version counts every epoch mutation this Invalidator has applied,
	// local or remote. It is the cheap "has anything changed" cursor the
	// cluster protocol compares across processes: a daemon stamps every
	// response with its version, and a client whose mirror is behind
	// asks for the changes since its mirrored version (Since). Written
	// only under mu, read lock-free.
	version atomic.Uint64

	// mu makes each epoch mutation one step: the cell advance, the
	// version advance and the journal record. A reader holding mu
	// therefore sees a version whose every change since floor is in the
	// journal. journal is a ring of the changes (floor, version]: the
	// change that made version x sits in slot x%journalCap. It is
	// allocated on the first mutation.
	//
	// Lock order: mu before cellsMu (a mutation under mu may create the
	// cell it advances); nothing holding cellsMu takes mu.
	mu      sync.Mutex
	journal []change
	floor   uint64

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
		cells:           make(map[Keyspace]*epoch),
		writesCommitted: reg.Counter("invalidate.writes"),
		bumps:           reg.Counter("invalidate.bumps"),
		remoteBumps:     reg.Counter("invalidate.remote_bumps"),
	}
	reg.SetInspection("invalidation", func() any { return inv.snapshot() })
	return inv
}

// cell returns (creating if needed) the epoch cell for a keyspace.
func (inv *Invalidator) cell(ks Keyspace) *epoch {
	inv.cellsMu.RLock()
	c := inv.cells[ks]
	inv.cellsMu.RUnlock()
	if c != nil {
		return c
	}
	return inv.newCell(ks)
}

// cellOf is cell for a name built in a caller's buffer: the lookup of
// an existing cell allocates nothing, and a new cell copies the name.
func (inv *Invalidator) cellOf(name []byte) *epoch {
	inv.cellsMu.RLock()
	c := inv.cells[Keyspace(name)]
	inv.cellsMu.RUnlock()
	if c != nil {
		return c
	}
	return inv.newCell(Keyspace(name))
}

// newCell returns ks's cell, creating it unless a racing caller did.
func (inv *Invalidator) newCell(ks Keyspace) *epoch {
	inv.cellsMu.Lock()
	defer inv.cellsMu.Unlock()
	c := inv.cells[ks]
	if c == nil {
		c = &epoch{}
		inv.cells[ks] = c
	}
	return c
}

// ReadStamps snapshots the current epochs of op's read keyspaces, the
// empty set when op declares none. The caller must take the snapshot
// BEFORE issuing the backend read it will cache (see the package
// ordering guarantee) and attach the stamps to the filled entry. Each
// name is built in a buffer on the stack, so a one-keyspace read set
// whose cell exists allocates nothing.
func (inv *Invalidator) ReadStamps(op string, params []soap.Param) Stamps {
	var st Stamps
	var buf [maxKeyspaceName]byte
	for _, m := range inv.graph.readSet(op) {
		name, ok := m.appendName(buf[:0], params)
		if !ok {
			continue
		}
		c := inv.cellOf(name)
		st = st.With(stamp{cell: c, seen: c.v.Load()})
	}
	return st
}

// WritesDeclared reports whether op has a declared write set — the
// cheap pre-check callers use to skip CommitWrite bookkeeping for
// read-only operations.
func (inv *Invalidator) WritesDeclared(op string) bool {
	return inv.graph.writesDeclared(op)
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
	inv.mu.Lock()
	for _, k := range ks {
		inv.advanceLocked(k)
	}
	inv.mu.Unlock()
	inv.bumps.Add(int64(len(ks)))
	inv.writesCommitted.Add(1)
	return len(ks)
}

// Bump advances a keyspace's epoch directly — the hook for out-of-band
// invalidation signals (an operator action, a server-push channel)
// that do not flow through a declared operation.
//
//lint:ignore api engine's TestLadder, core's TestStaleOnErrorRefusesInvalidatedEntry and cluster's TestPendingBumpFlush write through it
func (inv *Invalidator) Bump(ks Keyspace) {
	// Hooks first, then the local advance — same order as CommitWrite,
	// for the same reason (see OnBump).
	inv.fireOnBump([]Keyspace{ks})
	inv.mu.Lock()
	inv.advanceLocked(ks)
	inv.mu.Unlock()
	inv.bumps.Add(1)
}

// advanceLocked advances ks's cell and the version and journals the
// change, overwriting the oldest record once the ring is full. Callers
// hold inv.mu.
func (inv *Invalidator) advanceLocked(ks Keyspace) {
	c := inv.cell(ks)
	e := c.v.Add(1)
	v := inv.version.Add(1)
	if inv.journal == nil {
		inv.journal = make([]change, journalCap)
	}
	inv.journal[v%journalCap] = change{ks: ks, cell: c, epoch: e}
	if v-inv.floor > journalCap {
		inv.floor = v - journalCap
	}
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
	inv.mu.Lock()
	inv.advanceLocked(ks)
	inv.mu.Unlock()
	inv.bumps.Add(1)
	inv.remoteBumps.Add(1)
}

// InvalidateAll advances every existing epoch cell — the conservative
// hammer for "our view of the world may be stale in ways we cannot
// enumerate", e.g. a shared daemon restarted and any bumps pushed to
// the old incarnation are lost. Entries with no stamps (operations
// with no declared read set) are unaffected, exactly as they are
// unaffected by ordinary bumps. No hooks fire. The advances are not
// journaled: the journal empties and its floor rises to the new
// version, so Since refuses every version from before the call.
func (inv *Invalidator) InvalidateAll() {
	n := int64(0)
	inv.mu.Lock()
	inv.cellsMu.RLock()
	for _, c := range inv.cells {
		c.v.Add(1)
		inv.version.Add(1)
		n++
	}
	inv.cellsMu.RUnlock()
	clear(inv.journal)
	inv.floor = inv.version.Load()
	inv.mu.Unlock()
	inv.bumps.Add(n)
}

// Version returns the count of epoch mutations applied so far; it
// only grows. Equal versions mean "no epoch has changed in between";
// the cluster protocol uses it to skip epoch-table transfers.
func (inv *Invalidator) Version() uint64 { return inv.version.Load() }

// Since reports through fn every keyspace whose epoch changed after
// version v, each once and with its current epoch, and returns the
// version the report is complete up to. ok is false, and fn is not
// called, when v is ahead of the current version or older than the
// journal reaches (more than journalCap mutations ago, or before an
// InvalidateAll); the caller then needs the whole table (Range). fn
// runs with the mutation lock held and must not call back into the
// Invalidator.
func (inv *Invalidator) Since(v uint64, fn func(ks Keyspace, epoch uint64)) (now uint64, ok bool) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	now = inv.version.Load()
	if v < inv.floor || v > now {
		return now, false
	}
	for x := v + 1; x <= now; x++ {
		c := inv.journal[x%journalCap]
		// Cells only advance under mu, so a keyspace's latest change is
		// the one record whose epoch its cell still holds.
		if c.cell.v.Load() == c.epoch {
			fn(c.ks, c.epoch)
		}
	}
	return now, true
}

// ReadSet resolves op's declared read keyspaces for these parameters,
// nil when undeclared — the names a tier fill attaches to the entry so
// a remote tier can stamp it against its own epoch table.
func (inv *Invalidator) ReadSet(op string, params []soap.Param) []string {
	s := inv.graph.readSet(op)
	if len(s) == 0 {
		return nil
	}
	return appendNames[string](nil, s, params)
}

// StampWith returns a stamp binding ks's cell (creating it if needed)
// to a caller-supplied observed epoch, rather than the current one.
// It is how a daemon adopts a client's pre-read snapshot: the client
// reports the epoch it saw for ks before its backend read, and the
// resulting stamp is live — if the daemon's cell has advanced past
// seen (or advances later), Stale reports it.
func (inv *Invalidator) StampWith(ks Keyspace, seen uint64) stamp {
	return stamp{cell: inv.cell(ks), seen: seen}
}

// Epoch returns a keyspace's current epoch (0 if never touched).
func (inv *Invalidator) Epoch(ks Keyspace) uint64 {
	inv.cellsMu.RLock()
	c := inv.cells[ks]
	inv.cellsMu.RUnlock()
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Range calls fn for every keyspace that has an epoch cell, with its
// current epoch, in no particular order. fn runs under the cell
// table's read lock and must not call back into the Invalidator.
func (inv *Invalidator) Range(fn func(ks Keyspace, epoch uint64)) {
	inv.cellsMu.RLock()
	defer inv.cellsMu.RUnlock()
	for ks, c := range inv.cells {
		fn(ks, c.v.Load())
	}
}

// snapshot captures the live keyspace→epoch table, sorted-key iteration
// left to the consumer (JSON objects are unordered anyway).
func (inv *Invalidator) snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	inv.Range(func(ks Keyspace, epoch uint64) { out[string(ks)] = epoch })
	return out
}

// Keyspaces returns the sorted names of every keyspace that has an
// epoch cell, for diagnostics.
func (inv *Invalidator) Keyspaces() []Keyspace {
	var out []Keyspace
	inv.Range(func(ks Keyspace, _ uint64) { out = append(out, ks) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
