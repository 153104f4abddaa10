// Package epochgraph is the golden fixture for the epochgraph
// analyzer.
package epochgraph

import "repro/internal/invalidate"

// Declared operation and keyspace names, the sanctioned pattern.
const (
	opGetItem  = "doGetItem"
	opPutItem  = "doPutItem"
	opBadCase  = "getItem" // violates the do* convention when referenced
	itemPrefix = "item:"
)

const ksItems = invalidate.Keyspace("items") // fine: package-level declaration

// clean declares a well-formed graph.
func clean() *invalidate.Graph {
	g := invalidate.NewGraph()
	g.Read(opGetItem, invalidate.Param(itemPrefix, "key", 0), invalidate.Fixed(ksItems))
	g.Write(opPutItem, invalidate.Fixed(ksItems))
	return g
}

// badNames exercises the operation-name rules.
func badNames(op string) {
	g := invalidate.NewGraph()
	g.Read("doGetItem", nil)   // want "already declared as constant opGetItem"
	g.Write("GetItem", nil)    // want "does not follow the WSDL do\* convention"
	g.Write("doOrphan", nil)   // want "inline operation name"
	g.Read(opBadCase, nil)     // want "does not follow the WSDL do\* convention"
	g.Read(op, nil)            // want "must be a compile-time string constant"
	g.Read(opPutItem+"X", nil) // fine: constant expression following the convention
}

// duplicates exercises the per-graph set rules.
func duplicates() {
	g := invalidate.NewGraph()
	g.Read(opGetItem, nil)
	g.Read(opGetItem, nil)  // want "duplicate read-set declaration"
	g.Write(opGetItem, nil) // want "both the read and the write set"

	// A second, independent graph may declare the same operations.
	h := invalidate.NewGraph()
	h.Read(opGetItem, nil)
	h.Write(opPutItem, nil)
}

// inlineKeyspaces exercises the keyspace-literal rules.
func inlineKeyspaces(inv *invalidate.Invalidator, key string) {
	inv.Bump("items")                               // want "inline keyspace literal"
	inv.Bump(invalidate.Keyspace("item:" + key))    // want "keyspace built from an inline string literal"
	inv.Bump(invalidate.Keyspace(itemPrefix + key)) // fine: the prefix is a declared constant
	inv.Bump(ksItems)                               // fine: declared keyspace
	_ = []invalidate.Keyspace{"orphan"}             // want "inline keyspace literal"
	_ = invalidate.Fixed("items")                   // want "inline keyspace literal"
	_ = invalidate.Param("item:", "key", 0)         // want "inline keyspace literal"
}
