package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/soap"
)

// errBreakerOpen is the sentinel wrapped by every invocation rejected
// by an open circuit breaker.
var errBreakerOpen = errors.New("client: circuit breaker open")

// BreakerOpenError reports an invocation rejected without reaching the
// backend because the endpoint's breaker is open.
type BreakerOpenError struct {
	// Endpoint is the backend the breaker protects.
	Endpoint string
	// RetryAfter is when the breaker will next admit a probe.
	RetryAfter time.Time
}

// Error implements the error interface.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("client: circuit breaker open for %s", e.Endpoint)
}

// Unwrap ties the error to errBreakerOpen.
func (e *BreakerOpenError) Unwrap() error { return errBreakerOpen }

// Transient marks breaker rejections retryable-later for the transport
// classifier; within one invocation they are terminal (the breaker
// sits above the retrying transport).
func (e *BreakerOpenError) Transient() bool { return true }

// breakerState is a circuit breaker's current disposition.
type breakerState int

const (
	// breakerClosed admits every invocation (normal operation).
	breakerClosed breakerState = iota
	// breakerOpen rejects every invocation without touching the
	// backend.
	breakerOpen
	// breakerHalfOpen admits one probe invocation at a time to test
	// whether the backend recovered.
	breakerHalfOpen
)

// String names the state.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig tunes a breaker. The zero value is usable: a 10-call
// sliding window, open at ≥50% failures over ≥5 samples, 5s open
// interval. A half-open breaker admits one probe at a time, and every
// error counts as a failure except a *soap.Fault — a fault is an
// application-level answer from a live backend, not an outage.
type BreakerConfig struct {
	// Window is the sliding outcome window size per endpoint; values
	// < 1 mean 10.
	Window int
	// FailureThreshold in (0,1] opens the breaker when the window's
	// failure fraction reaches it; zero means 0.5.
	FailureThreshold float64
	// MinSamples is the minimum number of recorded outcomes before the
	// threshold applies (a single early failure must not trip a cold
	// breaker); values < 1 mean 5.
	MinSamples int
	// OpenFor is how long an open breaker rejects before moving to
	// half-open; zero means 5s.
	OpenFor time.Duration
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
	// Obs, when non-nil, publishes per-endpoint breaker state gauges
	// and the breaker.rejections / breaker.trips counters into the
	// registry (the /debug/wscache "breakers" section). All recording
	// is nil-safe, so leaving it nil costs nothing.
	Obs *obs.Registry
}

// breaker is a per-endpoint circuit breaker installed in the client
// handler chain. Install it innermost — between any caching handler
// and the pivot — so cache hits keep being served while the breaker is
// open, and breaker-open misses can degrade to stale serving
// (core.Config.StaleIfError).
//
// Per endpoint it keeps a sliding window of invocation outcomes; when
// the failure fraction reaches the threshold the breaker opens and
// rejects invocations immediately with a *BreakerOpenError. After
// OpenFor it admits one half-open probe at a time: its success closes
// the breaker, its failure re-opens it.
type breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	endpoints map[string]*endpointBreaker
}

var _ Handler = (*breaker)(nil)

// endpointBreaker is the per-endpoint state.
type endpointBreaker struct {
	state    breakerState
	window   []bool // ring buffer of outcomes; true = failure
	pos      int
	filled   int
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker builds a breaker from cfg.
func NewBreaker(cfg BreakerConfig) *breaker {
	if cfg.Window < 1 {
		cfg.Window = 10
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 0.5
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	cfg.Clock = clock.Or(cfg.Clock)
	return &breaker{cfg: cfg, endpoints: make(map[string]*endpointBreaker)}
}

// isFailure counts every error except SOAP faults: a fault means the
// backend is up and answering.
func isFailure(err error) bool {
	if err == nil {
		return false
	}
	var f *soap.Fault
	return !errors.As(err, &f)
}

// HandleInvoke implements Handler.
func (b *breaker) HandleInvoke(ictx *Context, next Invoker) error {
	if err := b.admit(ictx.Endpoint); err != nil {
		return err
	}
	err := next(ictx)
	b.record(ictx.Endpoint, isFailure(err))
	return err
}

// State reports the breaker state for an endpoint (Closed when the
// endpoint has never been seen). Open breakers past their OpenFor
// interval report half-open, matching what the next invocation will
// experience.
func (b *breaker) State(endpoint string) breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep, ok := b.endpoints[endpoint]
	if !ok {
		return breakerClosed
	}
	if ep.state == breakerOpen && !b.cfg.Clock().Before(ep.openedAt.Add(b.cfg.OpenFor)) {
		return breakerHalfOpen
	}
	return ep.state
}

// admit decides whether an invocation may proceed.
func (b *breaker) admit(endpoint string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep := b.endpoint(endpoint)
	now := b.cfg.Clock()
	switch ep.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		retryAt := ep.openedAt.Add(b.cfg.OpenFor)
		if now.Before(retryAt) {
			return b.reject(endpoint, retryAt)
		}
		// Open interval elapsed: start probing.
		b.transition(endpoint, ep, breakerHalfOpen)
		ep.probing = false
		fallthrough
	case breakerHalfOpen:
		if ep.probing {
			return b.reject(endpoint, ep.openedAt.Add(b.cfg.OpenFor))
		}
		ep.probing = true
		return nil
	}
	return nil
}

// reject builds the open-breaker error and counts the rejection.
func (b *breaker) reject(endpoint string, retryAt time.Time) error {
	b.cfg.Obs.Add("breaker.rejections", 1)
	return &BreakerOpenError{Endpoint: endpoint, RetryAfter: retryAt}
}

// transition moves an endpoint's breaker to state, publishing the new
// state to the registry gauge; callers hold b.mu.
func (b *breaker) transition(endpoint string, ep *endpointBreaker, state breakerState) {
	ep.state = state
	b.cfg.Obs.SetBreaker(endpoint, state.String())
}

// record folds an invocation outcome into the endpoint's state.
func (b *breaker) record(endpoint string, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep := b.endpoint(endpoint)
	switch ep.state {
	case breakerHalfOpen:
		ep.probing = false
		if failed {
			b.trip(endpoint, ep)
		} else {
			// One healthy probe closes the breaker with a clean window.
			b.transition(endpoint, ep, breakerClosed)
			b.resetWindow(ep)
		}
	case breakerClosed:
		b.push(ep, failed)
		if ep.filled >= b.cfg.MinSamples &&
			float64(ep.failures)/float64(ep.filled) >= b.cfg.FailureThreshold {
			b.trip(endpoint, ep)
		}
	case breakerOpen:
		// A straggler from before the trip; the window restarts on the
		// next half-open transition, so drop it.
	}
}

// endpoint returns (creating if needed) the per-endpoint state;
// callers hold b.mu.
func (b *breaker) endpoint(endpoint string) *endpointBreaker {
	ep, ok := b.endpoints[endpoint]
	if !ok {
		ep = &endpointBreaker{window: make([]bool, b.cfg.Window)}
		b.endpoints[endpoint] = ep
		b.cfg.Obs.SetBreaker(endpoint, breakerClosed.String())
	}
	return ep
}

// push records one outcome in the sliding window; callers hold b.mu.
func (b *breaker) push(ep *endpointBreaker, failed bool) {
	if ep.filled == len(ep.window) {
		if ep.window[ep.pos] {
			ep.failures--
		}
	} else {
		ep.filled++
	}
	ep.window[ep.pos] = failed
	if failed {
		ep.failures++
	}
	ep.pos = (ep.pos + 1) % len(ep.window)
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip(endpoint string, ep *endpointBreaker) {
	b.transition(endpoint, ep, breakerOpen)
	ep.openedAt = b.cfg.Clock()
	b.cfg.Obs.Add("breaker.trips", 1)
	b.resetWindow(ep)
}

// resetWindow clears the outcome window; callers hold b.mu.
func (b *breaker) resetWindow(ep *endpointBreaker) {
	for i := range ep.window {
		ep.window[i] = false
	}
	ep.pos, ep.filled, ep.failures = 0, 0, 0
}
