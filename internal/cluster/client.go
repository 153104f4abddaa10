package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/invalidate"
	"repro/internal/tier"
	"sync/atomic"
)

// Config configures the client side of the cluster tier.
type Config struct {
	// Addrs are the daemon addresses (host:port). Keys are routed by
	// consistent hashing; one address is the common case. Required,
	// non-empty.
	Addrs []string
	// Inv is this process's invalidator. When set, the tier propagates
	// epochs both ways: local bumps are pushed to every daemon before
	// the write returns, and daemon-side bumps observed on any response
	// are applied locally (staling this process's L1 entries). When nil
	// the tier is TTL-only.
	Inv *invalidate.Invalidator
	// MaxPayload bounds response frames; ≤ 0 means defaultMaxPayload.
	MaxPayload int
	// PoolSize is the idle connections kept per daemon; default 2.
	PoolSize int
	// BaseContext bounds the background epoch pushes the OnBump hook
	// issues (each push additionally gets an opTimeout deadline).
	// Required when Inv is set: the binary owns the root context, not
	// this package. Ignored otherwise.
	BaseContext context.Context
}

const (
	// dialTimeout bounds establishing a connection to a daemon.
	dialTimeout = time.Second
	// opTimeout bounds one round trip (write + read). A request context
	// with an earlier deadline tightens it further.
	opTimeout = 2 * time.Second
)

func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.MaxPayload <= 0 {
		c.MaxPayload = defaultMaxPayload
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	return c
}

// Remote is the client side of the shared L2: a tier.Tier whose
// storage lives in wscached daemons. Every response's meta (boot ID,
// epoch version) is compared against the per-daemon mirror, so any
// traffic at all — a hit, a miss, a put acknowledgment — carries
// invalidation: a version ahead of the mirror triggers a sync of the
// epochs changed since the mirrored version, which stale the local L1,
// and a changed boot ID (daemon restart, bumps lost) invalidates the
// local L1 outright.
type Remote struct {
	cfg   Config
	ring  *ring
	nodes []*node
	inv   *invalidate.Invalidator
	// reps interns the rep names of value responses.
	reps interner

	// Per-remote traffic counters, surfaced through TierStats (and,
	// when the tier is installed in a core.Cache, its "tiers"
	// inspection). Plain atomics rather than obs counters: the metric
	// name would have to carry the tier name, and obs
	// registry names are compile-time constants by convention.
	gets     atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	puts     atomic.Uint64
	errors   atomic.Uint64
	syncs    atomic.Uint64
	bumps    atomic.Uint64
	deferred atomic.Uint64
	restarts atomic.Uint64
}

var _ tier.Tier = (*Remote)(nil)

// node is the per-daemon state: the connection pool, the epoch mirror
// (this process's view of that daemon's table), and the pending-bump
// set (local bumps not yet acknowledged by that daemon).
//
// Lock order: pendingMu before epochMu; poolMu independent.
type node struct {
	addr string

	poolMu sync.Mutex
	idle   []*poolConn

	pendingMu sync.Mutex
	pending   map[string]struct{}

	epochMu sync.Mutex
	bootID  uint64 // 0 until first contact
	version uint64
	mirror  map[string]uint64
}

// poolConn is one pooled connection with the buffers its round trips
// reuse: scratch for request frames, in for every response payload
// but a value's (readResponse).
type poolConn struct {
	c       net.Conn
	br      *bufio.Reader
	scratch []byte
	in      []byte
}

// New builds the cluster tier and, when cfg.Inv is set, hooks local
// epoch bumps to push to every daemon.
func New(cfg Config) (*Remote, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: Config.Addrs is required")
	}
	c := cfg.withDefaults()
	r := &Remote{
		cfg:  c,
		ring: newRing(c.Addrs),
		inv:  c.Inv,
	}
	for _, addr := range c.Addrs {
		r.nodes = append(r.nodes, &node{
			addr:    addr,
			pending: make(map[string]struct{}),
			mirror:  make(map[string]uint64),
		})
	}
	if r.inv != nil {
		base := c.BaseContext
		if base == nil {
			return nil, errors.New("cluster: Config.BaseContext is required when Inv is set (the binary owns the root context)")
		}
		// Push local bumps synchronously: by the time the committing
		// write returns, every reachable daemon has the new epoch, so no
		// other process can fill a pre-write value into the shared tier
		// and have it accepted. An unreachable daemon's bumps go to its
		// pending set, flushed before this process talks to it again.
		r.inv.OnBump(func(keyspaces []invalidate.Keyspace) {
			names := make([]string, len(keyspaces))
			for i, ks := range keyspaces {
				names[i] = string(ks)
			}
			ctx, cancel := context.WithTimeout(base, opTimeout)
			defer cancel()
			r.pushBumps(ctx, names)
		})
	}
	return r, nil
}

// Name implements tier.Tier.
func (r *Remote) Name() string { return "l2" }

// nodeFor routes a key.
func (r *Remote) nodeFor(key tier.Key) *node {
	return r.nodes[r.ring.node(key)]
}

// Get implements tier.Tier. Pending bumps for the key's daemon are
// flushed first — an entry must never be served from a daemon that has
// not yet seen this process's writes.
func (r *Remote) Get(ctx context.Context, key tier.Key) (tier.Entry, bool, error) {
	r.gets.Add(1)
	n := r.nodeFor(key)
	if err := r.flush(ctx, n); err != nil {
		return tier.Entry{}, false, fmt.Errorf("cluster: bump flush: %w", err)
	}
	res, err := r.roundTrip(ctx, n, request{op: opGet, payload: encodeKey(key)})
	if err != nil {
		return tier.Entry{}, false, err
	}
	switch res.op {
	case opValue:
		r.afterMeta(ctx, n, res.meta)
		r.hits.Add(1)
		return res.entry, true, nil
	case opMiss:
		r.afterMeta(ctx, n, res.meta)
		r.misses.Add(1)
		return tier.Entry{}, false, nil
	}
	return tier.Entry{}, false, r.unexpected("get", res)
}

// PutStamps implements tier.Tier: the epochs this process believes the
// key's daemon holds for the given keyspaces, snapshotted before the
// backend read. The mirror only ever trails the daemon within one
// incarnation, so a stale snapshot can only make the daemon refuse the
// fill — never accept a stale one. The boot ID the mirror belongs to
// is pinned into the stamps: a daemon restart between this snapshot
// and the fill resets the daemon's epoch counters, and post-restart
// bumps could advance a cell back to exactly the snapshotted value
// (ABA) — the fill must then be refused by the boot check, not judged
// by colliding epochs. An uncontacted daemon mirrors as all zeros
// under boot 0, the most conservative stamp.
func (r *Remote) PutStamps(key tier.Key, keyspaces []string) []tier.Stamp {
	n := r.nodeFor(key)
	stamps := make([]tier.Stamp, len(keyspaces))
	n.epochMu.Lock()
	for i, ks := range keyspaces {
		stamps[i] = tier.Stamp{Keyspace: ks, Epoch: n.mirror[ks], Boot: n.bootID}
	}
	n.epochMu.Unlock()
	return stamps
}

// Put implements tier.Tier. The put frame carries the boot ID the
// entry's stamps were snapshotted under (falling back to the node's
// current one for stamp-less entries): the daemon drops fills from
// another incarnation, and for stamp-less entries the freshest view is
// the best available. e.Value is copied once, into the request frame
// (see request), and not kept.
func (r *Remote) Put(ctx context.Context, key tier.Key, e tier.Entry) error {
	n := r.nodeFor(key)
	if err := r.flush(ctx, n); err != nil {
		return fmt.Errorf("cluster: bump flush: %w", err)
	}
	var bootID uint64
	if len(e.Stamps) > 0 {
		bootID = e.Stamps[0].Boot
	} else {
		n.epochMu.Lock()
		bootID = n.bootID
		n.epochMu.Unlock()
	}
	res, err := r.roundTrip(ctx, n, request{op: opPut, bootID: bootID, key: key, entry: &e})
	if err != nil {
		return err
	}
	if res.op != opOK {
		return r.unexpected("put", res)
	}
	r.afterMeta(ctx, n, res.meta)
	r.puts.Add(1)
	return nil
}

// Delete implements tier.Tier.
func (r *Remote) Delete(ctx context.Context, key tier.Key) error {
	n := r.nodeFor(key)
	if err := r.flush(ctx, n); err != nil {
		return fmt.Errorf("cluster: bump flush: %w", err)
	}
	res, err := r.roundTrip(ctx, n, request{op: opDel, payload: encodeKey(key)})
	if err != nil {
		return err
	}
	if res.op != opOK {
		return r.unexpected("delete", res)
	}
	r.afterMeta(ctx, n, res.meta)
	return nil
}

// BumpEpoch implements tier.Tier: push the bumps to every daemon (all
// of them — a keyspace's entries hash across the whole ring).
func (r *Remote) BumpEpoch(ctx context.Context, keyspaces []string) error {
	return r.pushBumps(ctx, keyspaces)
}

// TierStats implements tier.Tier. Entry and byte counts live in the
// daemons; this side reports traffic.
func (r *Remote) TierStats() tier.Stats {
	return tier.Stats{
		Hits:   int64(r.hits.Load()),
		Misses: int64(r.misses.Load()),
		Stores: int64(r.puts.Load()),
		Errors: int64(r.errors.Load()),
	}
}

// Close drops every pooled connection.
func (r *Remote) Close() error {
	for _, n := range r.nodes {
		n.poolMu.Lock()
		for _, pc := range n.idle {
			pc.c.Close()
		}
		n.idle = nil
		n.poolMu.Unlock()
	}
	return nil
}

// pushBumps queues keyspaces on every node and flushes immediately.
// A node that cannot be reached keeps them pending (counted), to be
// flushed before this process's next request to it.
func (r *Remote) pushBumps(ctx context.Context, keyspaces []string) error {
	if len(keyspaces) == 0 {
		return nil
	}
	r.bumps.Add(1)
	var firstErr error
	for _, n := range r.nodes {
		n.pendingMu.Lock()
		for _, ks := range keyspaces {
			n.pending[ks] = struct{}{}
		}
		err := r.flushLocked(ctx, n)
		n.pendingMu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flush sends a node's pending bumps, if any.
func (r *Remote) flush(ctx context.Context, n *node) error {
	n.pendingMu.Lock()
	defer n.pendingMu.Unlock()
	return r.flushLocked(ctx, n)
}

// flushLocked sends the pending set as OpBump frames and applies each
// returned table (skipping the local re-application of this process's
// own single-step bumps — they were already applied locally when the
// write committed). The set is split into frames that respect both the
// bump request's name count and the frame bound (bumpChunk), and each
// frame's names leave the pending set when its acknowledgment arrives;
// a failure leaves the rest pending.
func (r *Remote) flushLocked(ctx context.Context, n *node) error {
	if len(n.pending) == 0 {
		return nil
	}
	names := make([]string, 0, len(n.pending))
	for ks := range n.pending {
		names = append(names, ks)
	}
	sort.Strings(names)
	for len(names) > 0 {
		chunk := names[:bumpChunk(names, r.cfg.MaxPayload)]
		names = names[len(chunk):]
		if err := r.flushChunkLocked(ctx, n, chunk); err != nil {
			r.deferred.Add(1)
			return err
		}
	}
	return nil
}

// flushChunkLocked sends one OpBump frame and, once acknowledged, applies
// its table and clears its names from the pending set.
func (r *Remote) flushChunkLocked(ctx context.Context, n *node, names []string) error {
	payload, err := encodeBump(n.mirrored(), names)
	if err != nil {
		return err
	}
	res, err := r.roundTrip(ctx, n, request{op: opBump, payload: payload})
	if err != nil {
		return err
	}
	if res.op != opTable {
		return r.unexpected("bump", res)
	}
	own := make(map[string]bool, len(names))
	for _, ks := range names {
		own[ks] = true
		delete(n.pending, ks)
	}
	r.applyTable(n, res.meta, res.table, own)
	return nil
}

// bumpChunk returns how many of names, at least one, go in the next
// bump frame: no more than maxBumpNames, and no more than fit
// maxPayload in the table reply, which repeats each name with its
// epoch and so is the larger of the two frames. A single name too long
// for any frame still goes alone, and its encode error surfaces.
func bumpChunk(names []string, maxPayload int) int {
	size := 16 + 4 // reply meta and entry count
	for i, ks := range names {
		size += 2 + len(ks) + 8
		if i == maxBumpNames || (i > 0 && size > maxPayload) {
			return i
		}
	}
	return len(names)
}

// mirrored returns the (bootID, version) the node's mirror is complete
// up to — the cursor a sync or bump request carries so the daemon can
// answer with only what changed since.
func (n *node) mirrored() respMeta {
	n.epochMu.Lock()
	defer n.epochMu.Unlock()
	return respMeta{bootID: n.bootID, version: n.version}
}

// afterMeta reconciles a meta-only response against the node's mirror,
// fetching the epochs changed since when the response shows state this
// process has not seen. It completes before the triggering operation
// returns, so a Get's caller observes any invalidation that Get's
// response implied.
func (r *Remote) afterMeta(ctx context.Context, n *node, m respMeta) {
	mirror := n.mirrored()
	if m.bootID == mirror.bootID && m.version <= mirror.version {
		return
	}
	res, err := r.roundTrip(ctx, n, request{op: opSync, payload: encodeMetaOnly(mirror)})
	if err != nil || res.op != opTable {
		// Leave the mirror stale: bootID/version were not updated, so the
		// next response re-triggers the sync.
		r.errors.Add(1)
		return
	}
	r.syncs.Add(1)
	r.applyTable(n, res.meta, res.table, nil)
}

// applyTable folds a table response into the node mirror and applies
// newly observed bumps to the local invalidator. A delta and a whole
// table fold the same way: either holds every epoch that changed after
// the mirrored version, and entries the mirror already has are no-ops.
// The daemon sends a delta only to a sender mirroring its own boot, so
// the boot-change reset below starts from a whole table. own marks
// keyspaces whose single-step advance is this process's just-pushed
// bump: those were applied locally at commit time, and re-applying
// would stale this process's own fresh fill. A jump of more than one
// step means another process also bumped, so it is applied.
func (r *Remote) applyTable(n *node, m respMeta, table map[string]uint64, own map[string]bool) {
	n.epochMu.Lock()
	restarted := n.bootID != 0 && n.bootID != m.bootID
	if n.bootID != m.bootID {
		n.bootID = m.bootID
		n.version = 0
		n.mirror = make(map[string]uint64, len(table))
		if restarted {
			// Step counting is meaningless across a restart. On FIRST
			// contact it is fine: the empty mirror reads as all zeros, so a
			// just-pushed own bump lands on old+1 only when it really is
			// the sole advance.
			own = nil
		}
	}
	var stale []string
	for ks, epoch := range table {
		old := n.mirror[ks]
		if epoch <= old {
			continue
		}
		n.mirror[ks] = epoch
		if !(own[ks] && epoch == old+1) {
			stale = append(stale, ks)
		}
	}
	if m.version > n.version {
		n.version = m.version
	}
	n.epochMu.Unlock()

	if r.inv == nil {
		return
	}
	if restarted {
		// The daemon lost every bump its previous incarnation absorbed;
		// local entries validated against them can no longer be trusted.
		r.restarts.Add(1)
		r.inv.InvalidateAll()
		return
	}
	for _, ks := range stale {
		r.inv.ApplyRemote(invalidate.Keyspace(ks))
	}
}

// unexpected normalizes a response that does not fit the request.
func (r *Remote) unexpected(verb string, res response) error {
	r.errors.Add(1)
	if res.op == opErr {
		return fmt.Errorf("cluster: %s: daemon: %s", verb, res.msg)
	}
	return fmt.Errorf("cluster: %s: unexpected response opcode %#x", verb, byte(res.op))
}

// request is what one round trip sends. Every request but a put is op
// around an encoded payload. A put is built from its fields in place,
// in the connection's scratch (appendPut), the way the daemon builds
// its responses: the value it borrows is copied once, straight into
// the frame. A retry builds the same bytes again on its fresh
// connection.
type request struct {
	op      opcode
	payload []byte
	// For opPut, instead of payload:
	bootID uint64
	key    tier.Key
	entry  *tier.Entry
}

// frame builds the request's frame over buf's storage.
func (q *request) frame(buf []byte) ([]byte, error) {
	if q.op != opPut {
		return appendFrame(buf[:0], q.op, q.payload), nil
	}
	frame, err := appendPut(appendFrame(buf[:0], 0, nil), q.bootID, q.key, q.entry)
	if err != nil {
		return nil, err
	}
	return finishFrame(frame, opPut), nil
}

// roundTrip sends one request on a pooled connection and reads and
// decodes its response. One retry on an IO failure covers the common
// pool staleness (daemon restarted, idle timeout): the retry dials
// fresh because the failed connection was discarded, not repooled. All
// requests are safe to retry — get/put/delete/sync are idempotent and a
// duplicated bump only over-invalidates. A response that is framed but
// does not decode is not retried: the connection is still in step. A
// request that does not encode is not sent.
func (r *Remote) roundTrip(ctx context.Context, n *node, q request) (response, error) {
	deadline := time.Now().Add(opTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		pc, err := n.acquire()
		if err != nil {
			lastErr = err
			continue
		}
		frame, err := q.frame(pc.scratch)
		if err != nil {
			n.release(pc, r.cfg.PoolSize)
			return response{}, err
		}
		pc.scratch = retain(frame)
		// The deadline stays set when the connection goes back to the
		// pool: every round trip sets its own before its first I/O.
		pc.c.SetDeadline(deadline)
		if _, err := pc.c.Write(frame); err != nil {
			pc.c.Close()
			lastErr = err
			continue
		}
		respOp, resp, err := readResponse(pc.br, r.cfg.MaxPayload, &pc.in)
		if err != nil {
			pc.c.Close()
			lastErr = err
			continue
		}
		// Decoded before the release: unless it is a value, resp is the
		// connection's own buffer, which its next round trip overwrites.
		res, err := decodeResponse(respOp, resp, &r.reps)
		n.release(pc, r.cfg.PoolSize)
		if err != nil {
			r.errors.Add(1)
			return response{}, err
		}
		return res, nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	r.errors.Add(1)
	return response{}, fmt.Errorf("cluster: %s: %w", n.addr, lastErr)
}

// acquire pops an idle connection or dials a fresh one.
func (n *node) acquire() (*poolConn, error) {
	n.poolMu.Lock()
	if len(n.idle) > 0 {
		pc := n.idle[len(n.idle)-1]
		n.idle = n.idle[:len(n.idle)-1]
		n.poolMu.Unlock()
		return pc, nil
	}
	n.poolMu.Unlock()
	c, err := net.DialTimeout("tcp", n.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &poolConn{c: c, br: bufio.NewReader(c)}, nil
}

// release returns a healthy connection to the pool, capped.
func (n *node) release(pc *poolConn, cap int) {
	n.poolMu.Lock()
	if len(n.idle) >= cap {
		n.poolMu.Unlock()
		pc.c.Close()
		return
	}
	n.idle = append(n.idle, pc)
	n.poolMu.Unlock()
}
