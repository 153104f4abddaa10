// Package portal implements the paper's motivating scenario (Sections
// 1 and 5.2): a portal site that renders an HTML page by calling
// back-end Web services — search, spelling, cached pages — through the
// caching client middleware. The load simulator stresses this handler
// to produce Figures 3 and 4.
package portal

import (
	"context"
	"fmt"
	"html"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/soap"
)

// Backend is one back-end Web service invocation the portal performs
// per page view.
type Backend struct {
	// Name labels the page section.
	Name string
	// Call is the (possibly caching) client call to invoke.
	Call *client.Call
	// Params maps the page query to the operation's parameters.
	Params func(query string) []soap.Param
}

// Site is the portal: an http.Handler rendering one page per request.
type Site struct {
	backends []Backend
	failSoft bool
	degraded atomic.Int64

	// reg/tracer record per-backend invocation latencies (the backend
	// stage, labelled by section name) and the portal.degraded counter;
	// set via Instrument, nil until then. timed gates clock reads.
	reg    *obs.Registry
	tracer obs.Tracer
	timed  bool
	now    func() time.Time
}

// New builds a Site over its back ends.
func New(backends ...Backend) *Site {
	return &Site{backends: backends, now: clock.Or(nil)}
}

// Instrument wires the site's observability: per-backend invocation
// latencies land in reg's backend stage (representation = section
// name), degraded renders in the portal.degraded counter, and tracer
// (when non-nil) receives an OnStage callback per backend call. Share
// reg with the backends' client and cache configs for one coherent
// /debug/wscache snapshot. Call before serving; not safe to call
// concurrently with Render.
func (s *Site) Instrument(reg *obs.Registry, tracer obs.Tracer) {
	s.reg = reg
	s.tracer = tracer
	s.timed = reg != nil || tracer != nil
}

// SetFailSoft switches the portal to degraded rendering: a failing
// back end yields an "unavailable" section instead of failing the whole
// page — one dead service must not take down the portal. Combined with
// the cache's StaleIfError, a section degrades to stale data first and
// to an apology only when nothing is cached.
func (s *Site) SetFailSoft(on bool) { s.failSoft = on }

// DegradedSections returns how many sections have rendered in degraded
// (unavailable) form since the site was built.
func (s *Site) DegradedSections() int64 { return s.degraded.Load() }

// RenderContext produces the portal page for a query by invoking every
// back end through the client middleware, under the caller's context:
// cancelling ctx aborts the remaining back-end invocations.
func (s *Site) RenderContext(ctx context.Context, query string) (string, error) {
	var b strings.Builder
	b.Grow(4096)
	b.WriteString("<!DOCTYPE html><html><head><title>Portal: ")
	b.WriteString(html.EscapeString(query))
	b.WriteString("</title></head><body><h1>Results for ")
	b.WriteString(html.EscapeString(query))
	b.WriteString("</h1>")
	for _, be := range s.backends {
		var start time.Time
		if s.timed {
			start = s.now()
		}
		result, err := be.Call.Invoke(ctx, be.Params(query)...)
		if s.timed {
			d := s.now().Sub(start)
			s.reg.Stage(obs.StageBackend, be.Name, d, err)
			if s.tracer != nil {
				s.tracer.OnStage(be.Call.Operation(), obs.StageBackend, be.Name, d, err)
			}
		}
		if err != nil {
			if !s.failSoft {
				return "", fmt.Errorf("portal: backend %s: %w", be.Name, err)
			}
			s.degraded.Add(1)
			s.reg.Add("portal.degraded", 1)
			b.WriteString(`<section class="degraded"><h2>`)
			b.WriteString(html.EscapeString(be.Name))
			b.WriteString("</h2><p>temporarily unavailable</p></section>")
			continue
		}
		b.WriteString("<section><h2>")
		b.WriteString(html.EscapeString(be.Name))
		b.WriteString("</h2>")
		renderResult(&b, result)
		b.WriteString("</section>")
	}
	b.WriteString("</body></html>")
	return b.String(), nil
}

// renderResult renders one back-end result into the page.
func renderResult(b *strings.Builder, result any) {
	switch r := result.(type) {
	case *googleapi.GoogleSearchResult:
		fmt.Fprintf(b, "<p>about %d results (%.3fs)</p><ol>", r.EstimatedTotalResultsCount, r.SearchTime)
		for i := range r.ResultElements {
			e := &r.ResultElements[i]
			fmt.Fprintf(b, `<li><a href="%s">%s</a><br/>%s</li>`,
				html.EscapeString(e.URL), html.EscapeString(e.Title), html.EscapeString(e.Snippet))
		}
		b.WriteString("</ol>")
	case string:
		b.WriteString("<p>")
		b.WriteString(html.EscapeString(r))
		b.WriteString("</p>")
	case []byte:
		fmt.Fprintf(b, "<p>cached page, %d bytes</p>", len(r))
	case nil:
		b.WriteString("<p>no result</p>")
	default:
		fmt.Fprintf(b, "<pre>%s</pre>", html.EscapeString(fmt.Sprintf("%+v", r)))
	}
}

// ServeHTTP implements http.Handler: GET /?q=term.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query().Get("q")
	if query == "" {
		query = "web services"
	}
	page, err := s.RenderContext(r.Context(), query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(page))
}
