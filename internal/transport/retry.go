package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"repro/internal/obs"
)

// transienter lets error values declare themselves retryable without
// the transport layer importing their package (the fault-injection
// transport's errors implement it).
type transienter interface {
	Transient() bool
}

// isTransient classifies an error from a Send as worth retrying.
// Transient: network errors (connection refused/reset, DNS, timeouts),
// per-attempt deadline expiry, truncated reads, and 5xx status errors —
// the backend may answer a fresh attempt. Permanent: 4xx status errors
// and context cancellation. SOAP faults never reach this classifier:
// fault envelopes arrive as well-formed 500 responses, so Send returns
// them as responses, not errors, and they are not retried.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	var tr transienter
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	// A per-attempt timeout (the caller's deadline is checked
	// separately by retry.Send).
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// RetryPolicy configures a retry transport. The zero value is usable:
// 3 attempts, 50ms base backoff capped at 2s, no per-attempt timeout.
// isTransient decides which errors are retried; any other error stops
// retrying and surfaces.
type RetryPolicy struct {
	// MaxAttempts is the total number of Send attempts (not re-tries);
	// values < 1 mean the default of 3.
	MaxAttempts int
	// AttemptTimeout bounds each individual attempt; the caller's
	// context still bounds the whole Send. Zero means no per-attempt
	// bound.
	AttemptTimeout time.Duration
	// BaseDelay is the backoff before the second attempt; it doubles
	// per attempt. Zero means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 2s.
	MaxDelay time.Duration
	// Rand supplies the jitter draw in [0,1); nil means math/rand.
	// Deterministic tests inject a fixed function.
	Rand func() float64
	// Sleep overrides the backoff wait, for tests; nil sleeps honoring
	// ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// Obs, when non-nil, counts transport.attempts / transport.retries
	// and records backoff sleeps in the backoff stage histogram. All
	// recording is nil-safe, so leaving it nil costs nothing.
	Obs *obs.Registry
}

// retry wraps an inner Transport with bounded retries: exponential
// backoff with full jitter (delay drawn uniformly from [0, base·2^n],
// capped), per-attempt timeouts, and transient-vs-permanent error
// classification. The caller's context deadline is authoritative: once
// it expires no further attempts are made.
type retry struct {
	Inner  Transport
	Policy RetryPolicy
}

var _ Transport = (*retry)(nil)

// NewRetry builds a retry transport over inner.
func NewRetry(inner Transport, policy RetryPolicy) *retry {
	return &retry{Inner: inner, Policy: policy}
}

// Send implements Transport.
func (r *retry) Send(ctx context.Context, req *Request) (*Response, error) {
	attempts := r.Policy.MaxAttempts
	if attempts < 1 {
		attempts = 3
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := r.backoff(attempt)
			r.Policy.Obs.Add("transport.retries", 1)
			// The backoff duration is the computed delay, recorded
			// without a clock read.
			r.Policy.Obs.Stage(obs.StageBackoff, "", d, nil)
			if err := r.sleep(ctx, d); err != nil {
				return nil, fmt.Errorf("transport: retry aborted after %d attempts: %w (last error: %v)", attempt, err, lastErr)
			}
		}
		r.Policy.Obs.Add("transport.attempts", 1)
		actx := ctx
		cancel := func() {}
		if r.Policy.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.Policy.AttemptTimeout)
		}
		resp, err := r.Inner.Send(actx, req)
		cancel()
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's deadline expired or the call was cancelled;
			// further attempts cannot be delivered to anyone.
			return nil, err
		}
		if !isTransient(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("transport: %d attempts failed: %w", attempts, lastErr)
}

// backoff computes the pre-attempt delay: full jitter over an
// exponentially growing, capped window.
func (r *retry) backoff(attempt int) time.Duration {
	base := r.Policy.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := r.Policy.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	window := base
	for i := 1; i < attempt && window < max; i++ {
		window *= 2
	}
	if window > max {
		window = max
	}
	draw := r.Policy.Rand
	if draw == nil {
		draw = rand.Float64
	}
	return time.Duration(draw() * float64(window))
}

// sleep waits d or until ctx is done.
func (r *retry) sleep(ctx context.Context, d time.Duration) error {
	if r.Policy.Sleep != nil {
		return r.Policy.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
