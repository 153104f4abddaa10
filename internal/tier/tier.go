// Package tier defines the cache-tier abstraction behind the L1→L2
// hierarchy: a Tier stores opaque byte-oriented entries under
// fixed-size keys, answers epoch-invalidation signals, and reports its
// counters. Two implementations exist — engine.Tier, the in-process
// table of wire entries that cmd/wscached serves (and core.Cache embeds,
// so a cache can stand in for a daemon), and cluster.Remote, the client
// speaking to such a daemon over TCP — so a cache stack composes them
// without knowing which side of a socket an entry lives on. The shape
// follows the network cache daemon of Voras & Žagar ("Web-enabling
// Cache Daemon for Complex Data") with the tiered client→daemon
// layering of Pfeifer & Lockemann's transactional method caching.
//
// Keys are a 128-bit FNV-1a digest of the cache key bytes. Unlike the
// engine's maphash digest — which is deliberately seeded per process so
// an adversary cannot predict shard routing — tier keys must be STABLE
// ACROSS PROCESSES: two clients of the same daemon only share entries
// if they derive identical keys from identical key bytes. Processes
// sharing a daemon must therefore also share a key-generation strategy
// (the same rep.KeyGenerator configuration).
package tier

import (
	"context"
	"math/bits"
	"time"
)

// Key is the cross-process-stable 128-bit identity of a cache entry.
type Key struct {
	Hi, Lo uint64
}

// FNV-1a 128-bit parameters (offset basis and prime), per the FNV
// reference: prime = 2^88 + 2^8 + 0x3b.
const (
	fnvOffsetHi = 0x6c62272e07bb0142
	fnvOffsetLo = 0x62b821756295c58d
	fnvPrimeHi  = 1 << 24
	fnvPrimeLo  = 0x13b
)

// KeyOf digests the cache key bytes with 128-bit FNV-1a. The function
// is pure and versioned by the wire protocol: every process speaking
// to one daemon computes identical keys for identical bytes.
func KeyOf(b []byte) Key {
	hi, lo := uint64(fnvOffsetHi), uint64(fnvOffsetLo)
	for _, c := range b {
		lo ^= uint64(c)
		// (hi,lo) *= prime, where prime = hi·2^64 + lo keeps only the
		// low 128 bits of the product.
		carry, plo := bits.Mul64(lo, fnvPrimeLo)
		hi = carry + hi*fnvPrimeLo + lo*fnvPrimeHi
		lo = plo
	}
	return Key{Hi: hi, Lo: lo}
}

// Stamp is one keyspace dependency of an entry as a tier sees it: the
// keyspace name and the epoch the WRITER OF THE ENTRY observed for it
// before issuing the backend read that produced the value. A tier that
// owns live epoch cells (the daemon) compares the stamp against the
// current epoch: a mismatch means a declared write landed after the
// snapshot, so the entry is stale — refused at Put, invalidated at Get.
type Stamp struct {
	Keyspace string
	Epoch    uint64
	// Boot, when nonzero, pins the snapshot to the tier incarnation it
	// was read from (the daemon boot ID the epoch belongs to). Epochs
	// are only comparable within one incarnation — a restarted daemon
	// counts from zero again, so an old-incarnation epoch can collide
	// with a new one (ABA). A tier client that knows its peer's boot ID
	// records it here at snapshot time and sends THIS boot with the
	// fill, so a fill spanning a restart is refused by the boot check
	// rather than mis-accepted by a colliding epoch. Tiers without
	// incarnations (the in-process engine.Tier) leave it zero.
	Boot uint64
}

// Entry is one tier-resident cache entry: the value flattened by a
// wire-capable representation (rep.WireStore), named so any process
// can decode it back.
type Entry struct {
	// Rep is the short registry name of the representation that encoded
	// Value ("binser", "xml", "compact-sax", "raw", ...).
	Rep string
	// Value is the representation's wire encoding of the payload.
	Value []byte
	// TTL is the entry's remaining lifetime at the time the Entry
	// crossed the tier boundary; zero means no expiry.
	TTL time.Duration
	// Stamps are the entry's keyspace dependencies (see Stamp); empty
	// for operations with no declared read set.
	Stamps []Stamp
}

// Stats are one tier's cumulative counters as seen by its consumer.
type Stats struct {
	Hits    int64
	Misses  int64
	Stores  int64
	Errors  int64
	Entries int
	Bytes   int
}

// Tier is one level of the cache hierarchy. Implementations must be
// safe for concurrent use. Get/Put/Delete take a Context because a
// tier may sit behind a socket; the in-process implementation ignores
// it. Errors are fail-soft signals: the caller falls through to the
// next tier or to the origin, never fails the invocation.
type Tier interface {
	// Name labels the tier in metrics and the /debug/wscache tier
	// inspection ("l1", "l2", an address, ...).
	Name() string
	// Get returns the entry under key if the tier holds a fresh one.
	// ok is false on a miss (no error); err reports tier failure.
	Get(ctx context.Context, key Key) (e Entry, ok bool, err error)
	// PutStamps snapshots the tier's view of the given keyspaces for
	// the entry about to be filled under key. It MUST be called before
	// the backend read whose response the Put will carry — the same
	// snapshot-before-read ordering the invalidate package demands —
	// and the returned stamps attached to that Put. A tier with no
	// epoch state returns nil.
	PutStamps(key Key, keyspaces []string) []Stamp
	// Put stores an entry. A tier that owns epoch state refuses
	// (without error) an entry whose stamps are already overtaken.
	// Put borrows e.Value until it returns: the caller may reuse the
	// buffer afterwards, so an implementation that keeps the value
	// copies it, once and at exactly its length.
	Put(ctx context.Context, key Key, e Entry) error
	// Delete drops the entry under key, if present.
	Delete(ctx context.Context, key Key) error
	// BumpEpoch advances the epochs of the given keyspaces, staling
	// every dependent entry the tier holds. The L1→L2 write path calls
	// it synchronously after a write-through commit, so fleet L1s
	// invalidate on their next contact with the shared tier.
	BumpEpoch(ctx context.Context, keyspaces []string) error
	// TierStats snapshots the tier's counters.
	TierStats() Stats
}
