// Package repro reproduces "Efficient Web Services Response Caching by
// Selecting Optimal Data Representation" (Takase & Tatsubori, ICDCS
// 2004) as a complete Go system: a from-scratch XML/SAX/DOM stack, a
// SOAP 1.1 rpc/encoded codec driven by WSDL-derived type metadata,
// Axis-style client middleware, and the paper's response cache with
// selectable key and value representations.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured results, and the examples/ directory for runnable
// entry points. `make tables` regenerates the paper's Tables 6–9,
// `make figures` its Figures 3 and 4, and `make referee` measures the
// serving paths end to end and per layer (benchmark/README.md).
package repro
