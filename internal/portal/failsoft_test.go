package portal

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/soap"
)

// newMixedPortal wires one healthy backend (through the dummy Google
// dispatcher) and one whose transport always fails.
func newMixedPortal(t *testing.T) *site {
	t.Helper()
	healthy, _ := newPortal(t)
	broken := client.NewCall(
		soap.NewCodec(nil),
		transportFailer{},
		"ep", "urn:x", "op", "", client.Options{},
	)
	backends := append([]Backend{}, healthy.backends...)
	backends = append(backends, Backend{
		Name:   "Broken Service",
		Call:   broken,
		Params: func(string) []soap.Param { return nil },
	})
	return New(backends...)
}

func TestFailSoftRendersDegradedSection(t *testing.T) {
	site := newMixedPortal(t)
	site.failSoft = true

	page, err := site.RenderContext(context.Background(), "resilient query")
	if err != nil {
		t.Fatalf("fail-soft render: %v", err)
	}
	// Healthy sections still render; the broken one degrades in place.
	for _, want := range []string{"Web Search", "Did you mean", "Broken Service", "temporarily unavailable"} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if site.degraded.Load() != 1 {
		t.Errorf("degraded sections = %d, want 1", site.degraded.Load())
	}
}

func TestFailSoftServesHTTP200(t *testing.T) {
	site := newMixedPortal(t)
	site.failSoft = true
	srv := httptest.NewServer(site)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?q=x")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200 under fail-soft", resp.StatusCode)
	}
}

func TestFailHardRemainsDefault(t *testing.T) {
	site := newMixedPortal(t)
	if _, err := site.RenderContext(context.Background(), "q"); err == nil {
		t.Error("default (fail-hard) portal must surface backend errors")
	}
}
