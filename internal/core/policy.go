package core

import (
	"sort"
	"time"

	"repro/internal/rep"
)

// OperationPolicy is the per-operation cache configuration an
// administrator or deployer supplies (Section 3.2): whether responses
// are cacheable, for how long, and with which value representation.
// The client application's read-only assertion (Section 4.2.4) is a
// representation: Store: rep.NewRefStore(types, true) passes results
// by reference even for mutable types.
type OperationPolicy struct {
	// Cacheable permits caching responses of this operation. Retrieval
	// operations are typically cacheable; update operations are not.
	Cacheable bool
	// TTL bounds entry freshness; 0 inherits the cache default.
	TTL time.Duration
	// Store overrides the cache's default value representation.
	Store rep.ValueStore
}

// Policy maps operations to their cache configuration. The zero value
// caches everything with the cache defaults (matching the simplest
// deployment); supply Default and Operations to restrict.
type Policy struct {
	// Default applies to operations absent from Operations. The zero
	// Policy treats every operation as cacheable; set DefaultExplicit
	// to make the zero-valued Default meaningful.
	Default OperationPolicy
	// DefaultExplicit marks Default as intentional. Without it a zero
	// Policy defaults to cache-everything.
	DefaultExplicit bool
	// Operations holds per-operation overrides.
	Operations map[string]OperationPolicy
}

// For returns the policy for an operation.
//
//lint:ignore api amazonapi's TestDefaultPolicy and core's ExampleNewPolicy read policies with it
func (p Policy) For(operation string) OperationPolicy {
	if op, ok := p.Operations[operation]; ok {
		return op
	}
	if p.DefaultExplicit {
		return p.Default
	}
	return OperationPolicy{Cacheable: true}
}

// CacheableOps returns the sorted names of operations explicitly marked
// cacheable, for diagnostics.
func (p Policy) CacheableOps() []string {
	var out []string
	for name, op := range p.Operations {
		if op.Cacheable {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// UncacheableOps returns the sorted names of operations explicitly
// marked uncacheable.
func (p Policy) UncacheableOps() []string {
	var out []string
	for name, op := range p.Operations {
		if !op.Cacheable {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NewPolicy builds a Policy that caches exactly the listed operations
// with the given TTL and treats everything else as uncacheable — the
// configuration shape the paper suggests for Google/Amazon Web services
// (Table 1).
func NewPolicy(ttl time.Duration, cacheable ...string) Policy {
	ops := make(map[string]OperationPolicy, len(cacheable))
	for _, name := range cacheable {
		ops[name] = OperationPolicy{Cacheable: true, TTL: ttl}
	}
	return Policy{
		Default:         OperationPolicy{Cacheable: false},
		DefaultExplicit: true,
		Operations:      ops,
	}
}
