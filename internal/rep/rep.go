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
//     limitation. The gob key and store are registered for the
//     referee's ledger only: in Go a serializable graph is a bean graph,
//     so the paper's serialization slot folds into reflection and no
//     order names gob.
//   - Registry: the name → value representation catalog. Each
//     registered representation pairs its store with its Table 3 row
//     and an applicability predicate. core, the server-side response
//     cache, and the cmd/* binaries resolve representations by name
//     here instead of constructing concrete stores. The key strategies
//     are a fixed list beside it (Keys), with their Table 2 rows.
//   - Selection: Selector walks an order over registry names — the
//     paper's Section 6 decision list for the in-process cache, a wire
//     preference for remote tiers — and takes the first applicable
//     representation that accepts the value. That is the paper's static
//     classifier, the "auto" policy: nothing is measured at run time,
//     so the same invocation always gets the same representation.
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
