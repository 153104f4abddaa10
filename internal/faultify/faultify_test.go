package faultify

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
)

// okTransport answers every call with a fixed envelope.
func okTransport(body string) transport.Transport {
	return transport.Func(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		return &transport.Response{Body: []byte(body), Status: 200}, nil
	})
}

func send(t *testing.T, tr transport.Transport) (*transport.Response, error) {
	t.Helper()
	return tr.Send(context.Background(), &transport.Request{Endpoint: "http://x/"})
}

func TestScriptFailThenRecover(t *testing.T) {
	tr := New(okTransport("<ok/>"), Config{Script: FailN(2)})

	for i := 0; i < 2; i++ {
		_, err := send(t, tr)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want ErrInjected", i+1, err)
		}
	}
	resp, err := send(t, tr)
	if err != nil || string(resp.Body) != "<ok/>" {
		t.Fatalf("recovered call: %v, %v", resp, err)
	}
	s := tr.Stats()
	if s.Calls != 3 || s.Failures != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInjectedErrorIsTransient(t *testing.T) {
	tr := New(okTransport("<ok/>"), Config{Script: []Outcome{Fail}})
	_, err := send(t, tr)
	var transient interface{ Transient() bool }
	if !errors.As(err, &transient) || !transient.Transient() {
		t.Errorf("injected error %v must classify transient", err)
	}
}

func TestErrorRateDeterministicReplay(t *testing.T) {
	run := func() []bool {
		tr := New(okTransport("<ok/>"), Config{ErrorRate: 0.5, Seed: 42})
		outcomes := make([]bool, 50)
		for i := range outcomes {
			_, err := send(t, tr)
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(), run()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs between identically seeded runs", i+1)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Errorf("failures = %d/%d, want a mix at rate 0.5", failures, len(a))
	}
}

func TestTruncateAndGarble(t *testing.T) {
	body := "<env>hello world</env>"
	tr := New(okTransport(body), Config{Script: []Outcome{truncate, garble, pass}})

	resp, err := send(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) >= len(body) {
		t.Errorf("truncated body = %q", resp.Body)
	}

	resp, err = send(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) == body || len(resp.Body) != len(body) {
		t.Errorf("garbled body = %q", resp.Body)
	}

	resp, err = send(t, tr)
	if err != nil || string(resp.Body) != body {
		t.Errorf("pass body = %q, %v", resp.Body, err)
	}

	s := tr.Stats()
	if s.Truncations != 1 || s.Garbles != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHangRespectsContext(t *testing.T) {
	tr := New(okTransport("<ok/>"), Config{Script: []Outcome{hang}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Send(ctx, &transport.Request{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("hang did not release on context expiry")
	}
}

func TestLatencyInjection(t *testing.T) {
	tr := New(okTransport("<ok/>"), Config{Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := send(t, tr); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 30ms", elapsed)
	}
}

// TestResetReplaysSchedule: rewinding the script (SetScript) replays
// it; the counters keep counting.
func TestResetReplaysSchedule(t *testing.T) {
	tr := New(okTransport("<ok/>"), Config{Script: FailN(1)})
	if _, err := send(t, tr); err == nil {
		t.Fatal("want scripted failure")
	}
	if _, err := send(t, tr); err != nil {
		t.Fatal("script exhausted, want pass")
	}
	tr.SetScript(FailN(1))
	if _, err := send(t, tr); err == nil {
		t.Fatal("after a rewind the script must replay")
	}
	if s := tr.Stats(); s.Calls != 3 || s.Failures != 2 {
		t.Errorf("stats after rewind = %+v", s)
	}
}

func TestSetScriptMidRun(t *testing.T) {
	tr := New(okTransport("<ok/>"), Config{})
	if _, err := send(t, tr); err != nil {
		t.Fatal(err)
	}
	tr.SetScript(FailN(1))
	if _, err := send(t, tr); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected failure after SetScript", err)
	}
	if _, err := send(t, tr); err != nil {
		t.Fatalf("err = %v, want recovery", err)
	}
}
