// Package rep is the data-representation layer of the caching
// middleware: the cache key strategies (Table 2) and cache value
// representations (Table 3) the paper selects among, promoted to a
// first-class subsystem that every other layer composes.
//
// Three pieces:
//
//   - The concrete representations: KeyGenerator implementations
//     (XML message, binary serialization, string concatenation, gob)
//     and ValueStore implementations (XML message, SAX events — naive
//     and compact — DOM tree, gob, binary serialization, reflection
//     copy, clone copy, pass by reference), each carrying its paper
//     limitation.
//   - Registry: the name → representation catalog. Each registered
//     representation pairs its store with its Table 2/3 row, an
//     applicability predicate, and the label its stage latencies are
//     recorded under in the observability layer. core, the server-side
//     response cache, and the cmd/* binaries resolve representations
//     by name here instead of constructing concrete stores.
//   - Selection: Selector walks an order over registry names — the
//     paper's Section 6 decision list for the in-process cache, a wire
//     preference for remote tiers — and takes the first applicable
//     representation that accepts the value. With sampling off that is
//     the static "auto" policy; with sampling on ("adaptive") the same
//     type closes the loop the paper leaves open, scoring each
//     applicable representation from measured Store/Load latency and
//     payload size (EWMA samples, 1-in-N probing) and switching
//     per-(operation, result type) choices at run time, with the
//     static order as cold-start prior and permanent fallback.
//
// The package was extracted from internal/core; every caller imports it
// directly.
package rep

import "sync"

// keyBufPool recycles the scratch buffers append-style key generation
// writes into, so materializing a key string costs exactly one
// allocation (the string itself). The cache core keeps its own pool
// for digest-only lookups that never materialize the string.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}
