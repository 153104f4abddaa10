package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// flaky fails its first n Sends with err, then succeeds.
type flaky struct {
	n     int
	err   error
	calls int
}

func (f *flaky) Send(ctx context.Context, req *Request) (*Response, error) {
	f.calls++
	if f.calls <= f.n {
		return nil, f.err
	}
	return &Response{Body: []byte("<ok/>"), Status: 200}, nil
}

// noSleep makes retry backoffs instantaneous in tests.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestRetryAbsorbsTransientFailures(t *testing.T) {
	inner := &flaky{n: 2, err: &net.OpError{Op: "dial", Err: errors.New("connection refused")}}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	resp, err := r.Send(context.Background(), &Request{})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if string(resp.Body) != "<ok/>" {
		t.Errorf("body = %q", resp.Body)
	}
	if inner.calls != 3 {
		t.Errorf("attempts = %d, want 3", inner.calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	inner := &flaky{n: 100, err: &statusError{Status: 503}}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 4, Sleep: noSleep})
	_, err := r.Send(context.Background(), &Request{})
	if err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	var se *statusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Errorf("err = %v, want wrapped 503 StatusError", err)
	}
	if inner.calls != 4 {
		t.Errorf("attempts = %d, want 4", inner.calls)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	inner := &flaky{n: 100, err: &statusError{Status: 404}}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 5, Sleep: noSleep})
	_, err := r.Send(context.Background(), &Request{})
	var se *statusError
	if !errors.As(err, &se) || se.Status != 404 {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
	if inner.calls != 1 {
		t.Errorf("attempts = %d, want 1 (4xx must not retry)", inner.calls)
	}
}

func TestRetryHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inner := Func(func(ctx context.Context, req *Request) (*Response, error) {
		cancel() // the caller goes away while the attempt is in flight
		return nil, &net.OpError{Op: "read", Err: errors.New("reset")}
	})
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 5, Sleep: noSleep})
	if _, err := r.Send(ctx, &Request{}); err == nil {
		t.Fatal("want error")
	}
	// Exactly one attempt: the cancelled context forbids further tries.
}

func TestRetryPerAttemptTimeout(t *testing.T) {
	calls := 0
	inner := Func(func(ctx context.Context, req *Request) (*Response, error) {
		calls++
		if calls == 1 {
			<-ctx.Done() // hang until the per-attempt deadline fires
			return nil, ctx.Err()
		}
		return &Response{Body: []byte("<ok/>"), Status: 200}, nil
	})
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 2, AttemptTimeout: 10 * time.Millisecond, Sleep: noSleep})
	resp, err := r.Send(context.Background(), &Request{})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if string(resp.Body) != "<ok/>" || calls != 2 {
		t.Errorf("calls = %d, body = %q", calls, resp.Body)
	}
}

func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	r := NewRetry(nil, RetryPolicy{
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  300 * time.Millisecond,
		Rand:      func() float64 { return 1.0 }, // upper edge of the jitter window
	})
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond}
	for i, w := range want {
		if got := r.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

type transientErr struct{ transient bool }

func (e *transientErr) Error() string   { return "marked" }
func (e *transientErr) Transient() bool { return e.transient }

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&statusError{Status: 503}, true},
		{&statusError{Status: 502}, true},
		{&statusError{Status: 404}, false},
		{&statusError{Status: 403}, false},
		{&net.OpError{Op: "dial", Err: errors.New("refused")}, true},
		{context.Canceled, false},
		{context.DeadlineExceeded, true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("opaque"), false},
		{&transientErr{transient: true}, true},
		{&transientErr{transient: false}, false},
	}
	for _, c := range cases {
		if got := isTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
