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

// site is the portal: an http.Handler rendering one page per request.
type site struct {
	backends []Backend

	// reg records per-backend invocation latencies (the backend stage,
	// labelled by section name); set via Instrument, nil until then.
	// timed gates clock reads.
	reg   *obs.Registry
	timed bool
}

// New builds a site over its back ends.
func New(backends ...Backend) *site {
	return &site{backends: backends}
}

// Instrument wires the site's observability: per-backend invocation
// latencies land in reg's backend stage (representation = section
// name). Share reg with the backends' client and cache configs for one
// coherent /debug/wscache snapshot. Call before serving; not safe to
// call concurrently with Render.
func (s *site) Instrument(reg *obs.Registry) {
	s.reg = reg
	s.timed = reg != nil
}

// RenderContext produces the portal page for a query by invoking every
// back end through the client middleware, under the caller's context:
// cancelling ctx aborts the remaining back-end invocations. A back end
// that fails fails the page (with the cache's StaleIfError, only once
// nothing stale is left to serve).
func (s *site) RenderContext(ctx context.Context, query string) (string, error) {
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
			start = clock.System()
		}
		result, err := be.Call.Invoke(ctx, be.Params(query)...)
		if s.timed {
			s.reg.Stage(obs.StageBackend, be.Name, clock.System().Sub(start), err)
		}
		if err != nil {
			return "", fmt.Errorf("portal: backend %s: %w", be.Name, err)
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
func (s *site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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
