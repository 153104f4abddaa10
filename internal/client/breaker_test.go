package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
)

// This file is an internal test (it drives the unexported
// (*Breaker).record); the quote fixtures live in the external
// client_test package, so it declares the little it needs itself.
const testNS = "urn:Quote"

type quote struct {
	Symbol string
	Price  float64
}

// breakerFixture wires a Call whose transport behaviour is swappable
// mid-test, with a breaker installed as the innermost handler.
type breakerFixture struct {
	call    *Call
	breaker *breaker
	now     *time.Time
	fail    *bool
	calls   *int
}

func newBreakerFixture(t *testing.T, cfg BreakerConfig) *breakerFixture {
	t.Helper()
	now := time.Unix(1000, 0)
	fail := false
	calls := 0
	cfg.Clock = func() time.Time { return now }
	b := NewBreaker(cfg)

	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: testNS, Local: "Quote"}, quote{}); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	tr := transport.Func(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		calls++
		if fail {
			return nil, errors.New("backend down")
		}
		body, err := codec.EncodeResponse(testNS, "getQuote", &quote{Symbol: "OK", Price: 1})
		if err != nil {
			return nil, err
		}
		return &transport.Response{Body: body, Status: 200}, nil
	})
	call := NewCall(codec, tr, "http://backend/quote", testNS, "getQuote", "", Options{Breaker: b})
	return &breakerFixture{call: call, breaker: b, now: &now, fail: &fail, calls: &calls}
}

func (f *breakerFixture) invoke() error {
	_, err := f.call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: "GOOG"})
	return err
}

func TestBreakerTripsOpenAndRecovers(t *testing.T) {
	f := newBreakerFixture(t, BreakerConfig{Window: 4, MinSamples: 4, FailureThreshold: 0.5, OpenFor: time.Second})

	// Healthy traffic keeps the breaker closed.
	for i := 0; i < 4; i++ {
		if err := f.invoke(); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.breaker.State("http://backend/quote"); s != breakerClosed {
		t.Fatalf("state = %v, want closed", s)
	}

	// The backend dies; failures fill the window and trip the breaker.
	*f.fail = true
	for i := 0; i < 4; i++ {
		if err := f.invoke(); err == nil {
			t.Fatal("want backend error")
		}
	}
	if s := f.breaker.State("http://backend/quote"); s != breakerOpen {
		t.Fatalf("state = %v, want open", s)
	}

	// While open, invocations are rejected without touching the backend.
	backendCalls := *f.calls
	err := f.invoke()
	var open *BreakerOpenError
	if !errors.As(err, &open) || !errors.Is(err, errBreakerOpen) {
		t.Fatalf("err = %v, want BreakerOpenError", err)
	}
	if open.Endpoint != "http://backend/quote" {
		t.Errorf("open.Endpoint = %q", open.Endpoint)
	}
	if *f.calls != backendCalls {
		t.Error("open breaker let an invocation through")
	}

	// After OpenFor, a half-open probe reaches the (still dead) backend
	// and re-opens the breaker.
	*f.now = f.now.Add(2 * time.Second)
	if s := f.breaker.State("http://backend/quote"); s != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", s)
	}
	if err := f.invoke(); err == nil {
		t.Fatal("want probe failure")
	}
	if *f.calls != backendCalls+1 {
		t.Error("half-open probe did not reach the backend")
	}
	if s := f.breaker.State("http://backend/quote"); s != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", s)
	}

	// The backend recovers; the next probe closes the breaker.
	*f.now = f.now.Add(2 * time.Second)
	*f.fail = false
	if err := f.invoke(); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if s := f.breaker.State("http://backend/quote"); s != breakerClosed {
		t.Fatalf("state after healthy probe = %v, want closed", s)
	}
	if err := f.invoke(); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
}

func TestBreakerMinSamplesGuardsColdStart(t *testing.T) {
	f := newBreakerFixture(t, BreakerConfig{Window: 10, MinSamples: 5, FailureThreshold: 0.5})
	*f.fail = true
	// Four failures: below MinSamples, the breaker must stay closed.
	for i := 0; i < 4; i++ {
		if err := f.invoke(); err == nil {
			t.Fatal("want backend error")
		}
	}
	if s := f.breaker.State("http://backend/quote"); s != breakerClosed {
		t.Fatalf("state = %v, want closed before MinSamples", s)
	}
	if err := f.invoke(); err == nil {
		t.Fatal("want backend error")
	}
	if s := f.breaker.State("http://backend/quote"); s != breakerOpen {
		t.Fatalf("state = %v, want open at MinSamples", s)
	}
}

func TestBreakerPerEndpointIsolation(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 2, MinSamples: 2, Clock: func() time.Time { return time.Unix(0, 0) }})
	b.record("http://dead/", true)
	b.record("http://dead/", true)
	if s := b.State("http://dead/"); s != breakerOpen {
		t.Fatalf("dead endpoint state = %v", s)
	}
	if s := b.State("http://alive/"); s != breakerClosed {
		t.Fatalf("untouched endpoint state = %v", s)
	}
}

func TestBreakerSlidingWindowEvictsOldOutcomes(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 4, FailureThreshold: 0.75, Clock: func() time.Time { return time.Unix(0, 0) }})
	ep := "http://x/"
	// Two old failures, then four successes push them out of the
	// window: the failure fraction stays below threshold throughout.
	b.record(ep, true)
	b.record(ep, true)
	for i := 0; i < 4; i++ {
		b.record(ep, false)
	}
	if s := b.State(ep); s != breakerClosed {
		t.Fatalf("state = %v, want closed after failures age out", s)
	}
	// Three fresh failures on the clean window reach 3/4 = 0.75: trip.
	for i := 0; i < 3; i++ {
		b.record(ep, true)
	}
	if s := b.State(ep); s != breakerOpen {
		t.Fatalf("state = %v, want open at threshold", s)
	}
}

// TestBreakerHalfOpenAdmitsOneProbe: while one half-open probe is in
// flight, a second concurrent call is rejected without reaching the
// backend; the probe's success closes the breaker.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{Window: 2, MinSamples: 2, OpenFor: time.Second, Clock: func() time.Time { return now }})
	ep := "http://x/"
	b.record(ep, true)
	b.record(ep, true)
	now = now.Add(2 * time.Second)
	if s := b.State(ep); s != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", s)
	}

	inside, release := make(chan struct{}), make(chan struct{})
	probe := make(chan error, 1)
	go func() {
		probe <- b.HandleInvoke(&Context{Endpoint: ep}, func(*Context) error {
			close(inside)
			<-release
			return nil
		})
	}()
	<-inside
	reached := false
	err := b.HandleInvoke(&Context{Endpoint: ep}, func(*Context) error { reached = true; return nil })
	var open *BreakerOpenError
	if !errors.As(err, &open) {
		t.Fatalf("second call during the probe: err = %v, want *BreakerOpenError", err)
	}
	if reached {
		t.Error("second call reached the backend during the probe")
	}
	close(release)
	if err := <-probe; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if s := b.State(ep); s != breakerClosed {
		t.Fatalf("state after healthy probe = %v, want closed", s)
	}
	if err := b.HandleInvoke(&Context{Endpoint: ep}, func(*Context) error { return nil }); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
}

// TestBreakerPublishesToObs: with Obs set, a trip and a rejection show
// in the registry's counters, and its breaker gauge follows the state.
func TestBreakerPublishesToObs(t *testing.T) {
	reg := obs.NewRegistry()
	f := newBreakerFixture(t, BreakerConfig{Window: 2, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Second, Obs: reg})
	const endpoint = "http://backend/quote"
	if err := f.invoke(); err != nil {
		t.Fatal(err)
	}
	if s := reg.Snapshot(); s.Breakers[endpoint] != "closed" {
		t.Fatalf("gauge = %q after a healthy call, want closed", s.Breakers[endpoint])
	}
	*f.fail = true
	if err := f.invoke(); err == nil {
		t.Fatal("want backend error")
	}
	s := reg.Snapshot()
	if s.Counters["breaker.trips"] != 1 || s.Breakers[endpoint] != "open" {
		t.Fatalf("after the trip: trips = %d, gauge = %q; want 1, open", s.Counters["breaker.trips"], s.Breakers[endpoint])
	}
	if err := f.invoke(); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("err = %v, want the open breaker's rejection", err)
	}
	if s := reg.Snapshot(); s.Counters["breaker.rejections"] != 1 {
		t.Errorf("rejections = %d, want 1", s.Counters["breaker.rejections"])
	}
}
