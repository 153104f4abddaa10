// Package clock is the repository's single injectable time seam. Every
// config whose behaviour depends on time (the cache core and engine,
// the circuit breaker, the server cache) takes a Clock hook and
// defaults it through Or, so that TTL expiry and breaker windows can be
// driven deterministically in tests; the retrying transport injects its
// backoff sleep and jitter draw instead. Code that only measures
// elapsed time for stage metrics (the client handler chain, the
// portal) reads System directly. This package is the one sanctioned
// caller of time.Now in the hot path; the clockinject analyzer enforces
// that everywhere else.
package clock

import "time"

// System reads the wall clock. It is the default every config falls
// back to via Or.
func System() time.Time { return time.Now() }

// Or returns c, or the system clock when c is nil. Configs default
// their Clock fields with it:
//
//	now := clock.Or(cfg.Clock)
func Or(c func() time.Time) func() time.Time {
	if c == nil {
		return System
	}
	return c
}
