// Package faultify wraps a transport.Transport with deterministic
// fault injection: configurable error rates, injected latency,
// truncated or garbled response envelopes, and scripted
// N-failures-then-recover sequences. It exists so every robustness
// behaviour of the middleware — retry/backoff absorption, circuit
// breaking, stale-on-error degraded serving, decode-failure recovery —
// can be exercised and benchmarked without a real failing backend.
//
// All randomness flows from a single seeded source, so a given
// (Config, request sequence) pair replays the same fault schedule on
// every run; tests and benchmarks stay reproducible.
package faultify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/transport"
)

// ErrInjected is the sentinel all injected transport failures wrap;
// errors.Is(err, faultify.ErrInjected) identifies them.
//
//lint:ignore api the root TestChaosNoStaleAfterWrite and TestChaosStaleOnErrorRefusesAfterWrite classify injected failures with it
var ErrInjected = errors.New("faultify: injected backend failure")

// injectedError is the concrete injected failure. It reports itself
// transient (via the Transient method transport retries honor), as
// a real flaky backend's network errors would be.
type injectedError struct {
	call int64
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("faultify: injected backend failure (call %d)", e.call)
}

// Transient marks the injected failure retryable.
func (e *injectedError) Transient() bool { return true }

// Unwrap ties the error to ErrInjected.
func (e *injectedError) Unwrap() error { return ErrInjected }

// Outcome is one scripted per-call behaviour.
type Outcome int

const (
	// pass forwards the call untouched.
	pass Outcome = iota
	// Fail returns an injected transient error without calling the
	// inner transport.
	Fail
	// hang blocks until the call's context is done, then returns its
	// error — a dead backend that accepts connections but never answers.
	hang
	// truncate forwards the call but cuts the response body short,
	// simulating a connection dropped mid-response.
	truncate
	// garble forwards the call but corrupts the response body,
	// simulating on-the-wire damage or a confused proxy.
	garble
)

// FailN builds a script of n failures followed by recovery (subsequent
// calls pass): the canonical breaker-trip-then-half-open-probe
// scenario.
func FailN(n int) []Outcome {
	script := make([]Outcome, n)
	for i := range script {
		script[i] = Fail
	}
	return script
}

// Config tunes the injected faults. The zero value injects nothing.
type Config struct {
	// Script is consumed first, one Outcome per Send, before the
	// probabilistic rates apply; an exhausted script falls through to
	// the rates (all-zero rates mean recovery).
	Script []Outcome
	// ErrorRate in [0,1] is the probability a call fails with an
	// injected transient error.
	ErrorRate float64
	// TruncateRate in [0,1] is the probability a successful response
	// body is truncated.
	TruncateRate float64
	// GarbleRate in [0,1] is the probability a successful response body
	// is corrupted in place.
	GarbleRate float64
	// Latency is added to every forwarded call.
	Latency time.Duration
	// Seed makes the fault schedule deterministic; zero means seed 1.
	Seed int64
}

// stats counts what the transport injected.
type stats struct {
	Calls       int64 // total Sends
	Failures    int64 // injected errors
	Hangs       int64 // calls held until context expiry
	Truncations int64 // truncated response bodies
	Garbles     int64 // corrupted response bodies
}

// Transport is the fault-injecting wrapper.
//
//lint:ignore api the root TestChaos* tests' chaosHarness holds one
type Transport struct {
	inner transport.Transport
	cfg   Config

	mu    sync.Mutex
	rng   *rand.Rand
	pos   int // script position
	stats stats
}

var _ transport.Transport = (*Transport)(nil)

// New wraps inner with fault injection per cfg.
func New(inner transport.Transport, cfg Config) *Transport {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Transport{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Stats returns a snapshot of the injection counters.
func (t *Transport) Stats() stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// SetScript replaces the script and rewinds to its start; the
// probabilistic rates are untouched. Used by scenario drivers that
// change backend behaviour mid-run (fail, then recover).
func (t *Transport) SetScript(script []Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Script = script
	t.pos = 0
}

// Send implements transport.Transport.
func (t *Transport) Send(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	outcome, call := t.plan()

	if delay := t.cfg.Latency; delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("faultify: latency wait: %w", ctx.Err())
		}
	}

	switch outcome {
	case Fail:
		t.count(func(s *stats) { s.Failures++ })
		return nil, &injectedError{call: call}
	case hang:
		t.count(func(s *stats) { s.Hangs++ })
		<-ctx.Done()
		return nil, fmt.Errorf("faultify: backend hung: %w", ctx.Err())
	}

	resp, err := t.inner.Send(ctx, req)
	if err != nil || resp == nil {
		return resp, err
	}
	switch outcome {
	case truncate:
		t.count(func(s *stats) { s.Truncations++ })
		resp = &transport.Response{Body: truncateBody(resp.Body), Status: resp.Status, Header: resp.Header}
	case garble:
		t.count(func(s *stats) { s.Garbles++ })
		resp = &transport.Response{Body: garbleBody(resp.Body), Status: resp.Status, Header: resp.Header}
	}
	return resp, nil
}

// plan decides this call's outcome under the lock.
func (t *Transport) plan() (Outcome, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Calls++
	call := t.stats.Calls

	if t.pos < len(t.cfg.Script) {
		o := t.cfg.Script[t.pos]
		t.pos++
		return o, call
	}
	switch {
	case t.cfg.ErrorRate > 0 && t.rng.Float64() < t.cfg.ErrorRate:
		return Fail, call
	case t.cfg.TruncateRate > 0 && t.rng.Float64() < t.cfg.TruncateRate:
		return truncate, call
	case t.cfg.GarbleRate > 0 && t.rng.Float64() < t.cfg.GarbleRate:
		return garble, call
	}
	return pass, call
}

// count mutates stats under the lock.
func (t *Transport) count(f func(*stats)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(&t.stats)
}

// truncateBody cuts a body to half its length (always removing at least
// one byte of a non-empty body), producing an unterminated envelope.
func truncateBody(body []byte) []byte {
	if len(body) == 0 {
		return body
	}
	return body[:len(body)/2]
}

// garbleBody corrupts a copy of the body: every markup delimiter is
// flipped, producing ill-formed XML that still reaches the parser.
func garbleBody(body []byte) []byte {
	out := make([]byte, len(body))
	copy(out, body)
	for i, b := range out {
		if b == '<' || b == '>' {
			out[i] ^= 0x01
		}
	}
	return out
}
