package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/portal"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
)

// StoreSpec names a cache value representation and builds it against a
// codec, so each figure series runs with a fresh cache.
type StoreSpec struct {
	// Name is the legend label.
	Name string
	// Rep is the rep.Registry name the spec resolves ("sax", "auto",
	// ...); informational for hand-built specs.
	Rep   string
	Build func(reg *typemap.Registry, codec *soap.Codec) rep.ValueStore
}

// registrySpec resolves a representation by registry name, freshly per
// build so series never share state. Builtin names are known-good;
// resolution cannot fail for them.
func registrySpec(display, name string) StoreSpec {
	return StoreSpec{
		Name: display,
		Rep:  name,
		Build: func(r *typemap.Registry, c *soap.Codec) rep.ValueStore {
			store, err := rep.NewRegistry(r, c).Store(name)
			if err != nil {
				panic(fmt.Sprintf("bench: builtin representation %q: %v", name, err))
			}
			return store
		},
	}
}

// FigureStores returns the six series of Figures 3 and 4, in the
// paper's legend order, each resolved through the representation
// registry. Pass by reference is hand-built: the figure shares even
// mutable results (the portal never mutates them), where the
// registry's "ref" accepts only immutable types.
func FigureStores() []StoreSpec {
	return []StoreSpec{
		registrySpec("XML Message", "xml"),
		registrySpec("SAX Events Sequence", "sax"),
		registrySpec("Binary Serialization", "binser"),
		registrySpec("Copy by Reflection", "reflect"),
		registrySpec("Copy by Clone", "clone"),
		{Name: "Pass by Reference", Rep: "ref",
			Build: func(r *typemap.Registry, _ *soap.Codec) rep.ValueStore {
				return rep.NewRefStore(r, true)
			}},
	}
}

// StoreSpecByName resolves a series by legend label or registry name
// (case-insensitive): the six paper series, "auto", or any other name
// the representation registry knows.
func StoreSpecByName(name string) (StoreSpec, error) {
	for _, s := range FigureStores() {
		if strings.EqualFold(s.Name, name) || strings.EqualFold(s.Rep, name) {
			return s, nil
		}
	}
	if strings.EqualFold(name, "auto") {
		return registrySpec("Static classifier (auto)", "auto"), nil
	}
	// Fall back to the registry's own namespace ("dom", "gob", ...); its
	// error lists every name it accepts.
	spec, err := rep.NewRegistry(typemap.NewRegistry(), nil).ValueSpecFor(name)
	if err != nil {
		return StoreSpec{}, fmt.Errorf("bench: %w", err)
	}
	return registrySpec(spec.Store.Name(), spec.Name), nil
}

// FigurePoint is one measurement: a hit ratio and the portal's
// throughput and average response time there.
type FigurePoint struct {
	HitRatio   float64
	Throughput float64
	AvgLatency time.Duration
}

// FigureSeries is one store's curve across the hit-ratio sweep.
type FigureSeries struct {
	Store  string
	Points []FigurePoint
}

// FigureConfig configures a portal-scenario sweep.
type FigureConfig struct {
	// Concurrency is the number of simulated users: 1 for Figure 3,
	// 25 for Figure 4.
	Concurrency int
	// RequestsPerPoint is the number of portal page requests measured
	// at each hit ratio.
	RequestsPerPoint int
	// HitRatios are the swept ratios; nil means 0%..100% step 20%.
	HitRatios []float64
	// Stores are the series; nil means all six.
	Stores []StoreSpec
	// HotQueries is the number of distinct pre-warmed queries; at
	// least 1. More hot queries exercise a larger cache.
	HotQueries int
	// Operation selects the back-end operation under load; empty means
	// doGoogleSearch (the paper's choice — the spread between methods
	// is largest there).
	Operation string
	// Obs, when non-nil, is shared by every per-point stack (cache,
	// client, transport, portal), so a sweep's stage latencies and
	// hit/miss counters accumulate into one registry for inspection.
	// Note that the sweep builds a fresh cache per point; the merged
	// core counters describe the whole sweep, not one cell.
	Obs *obs.Registry
}

// FigureContext runs the portal-site scenario sweep of Section 5.2: a
// portal backed by the dummy Google service through the caching client,
// with the cache-hit ratio artificially controlled by the request mix.
// The measured operation is doGoogleSearch (the paper's choice: the
// spread between methods is largest there), keys by string
// concatenation. Cancelling ctx stops the load generator between
// requests and aborts the sweep.
func FigureContext(ctx context.Context, cfg FigureConfig) ([]FigureSeries, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.RequestsPerPoint <= 0 {
		cfg.RequestsPerPoint = 500
	}
	if cfg.HitRatios == nil {
		cfg.HitRatios = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if cfg.Stores == nil {
		cfg.Stores = FigureStores()
	}
	if cfg.HotQueries <= 0 {
		cfg.HotQueries = 4
	}
	if cfg.Operation == "" {
		cfg.Operation = googleapi.OpGoogleSearch
	}
	if _, ok := operationParams(cfg.Operation); !ok {
		return nil, fmt.Errorf("bench: figure: unknown operation %q", cfg.Operation)
	}

	var out []FigureSeries
	for _, spec := range cfg.Stores {
		series := FigureSeries{Store: spec.Name}
		for _, ratio := range cfg.HitRatios {
			pt, err := figurePoint(ctx, cfg, spec, ratio)
			if err != nil {
				return nil, fmt.Errorf("bench: figure %s @%.0f%%: %w", spec.Name, ratio*100, err)
			}
			series.Points = append(series.Points, pt)
		}
		out = append(out, series)
	}
	return out, nil
}

// figurePoint measures one (store, hit ratio) cell with a fresh portal
// stack.
func figurePoint(ctx context.Context, cfg FigureConfig, spec StoreSpec, ratio float64) (FigurePoint, error) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		return FigurePoint{}, err
	}
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Store:      spec.Build(codec.Registry(), codec),
		DefaultTTL: time.Hour,
		Obs:        cfg.Obs,
	})
	call := client.NewCall(codec, &transport.InProcess{Handler: disp, Obs: cfg.Obs},
		googleapi.Endpoint, googleapi.Namespace, cfg.Operation,
		"urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}, Obs: cfg.Obs})

	params, _ := operationParams(cfg.Operation)
	site := portal.New(portal.Backend{
		Name:   "Back end",
		Call:   call,
		Params: params,
	})
	if cfg.Obs != nil {
		site.Instrument(cfg.Obs, nil)
	}

	hot := make([]string, cfg.HotQueries)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot query %d", i)
	}
	// Pre-warm so hot queries hit from the first measured request.
	for _, q := range hot {
		if _, err := site.RenderContext(ctx, q); err != nil {
			return FigurePoint{}, err
		}
	}

	res, err := loadgen.RunContext(ctx, loadgen.Config{
		Concurrency: cfg.Concurrency,
		Requests:    cfg.RequestsPerPoint,
		HitRatio:    ratio,
		HotQueries:  hot,
		MissQuery:   func(i int) string { return fmt.Sprintf("miss query %d", i) },
		Do: func(q string) error {
			_, err := site.RenderContext(ctx, q)
			return err
		},
	})
	if err != nil {
		return FigurePoint{}, err
	}
	if res.Errors > 0 {
		return FigurePoint{}, fmt.Errorf("%d request errors", res.Errors)
	}
	return FigurePoint{HitRatio: ratio, Throughput: res.Throughput, AvgLatency: res.AvgLatency}, nil
}

// operationParams maps an operation name to its query→parameters
// builder.
func operationParams(op string) (func(q string) []soap.Param, bool) {
	switch op {
	case googleapi.OpGoogleSearch:
		return func(q string) []soap.Param {
			return googleapi.SearchParams("key", q, 0, 10, false, "", false, "")
		}, true
	case googleapi.OpSpellingSuggestion:
		return func(q string) []soap.Param {
			return googleapi.SpellingParams("key", q)
		}, true
	case googleapi.OpGetCachedPage:
		return func(q string) []soap.Param {
			return googleapi.CachedPageParams("key", "http://pages.example/"+q)
		}, true
	default:
		return nil, false
	}
}

// FormatFigure renders figure series as two aligned text tables
// (throughput and average response time), in the paper's layout:
// hit ratio columns, one row per cache method.
func FormatFigure(id, title string, series []FigureSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s. %s\n", id, title)
	if len(series) == 0 {
		return b.String()
	}

	width := len("method")
	for _, s := range series {
		if len(s.Store) > width {
			width = len(s.Store)
		}
	}
	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}

	writeBlock := func(header string, cell func(FigurePoint) string) {
		b.WriteString(header)
		b.WriteByte('\n')
		b.WriteString(pad("method", width))
		for _, p := range series[0].Points {
			fmt.Fprintf(&b, "  %7s", fmt.Sprintf("%.0f%%", p.HitRatio*100))
		}
		b.WriteByte('\n')
		for _, s := range series {
			b.WriteString(pad(s.Store, width))
			for _, p := range s.Points {
				fmt.Fprintf(&b, "  %7s", cell(p))
			}
			b.WriteByte('\n')
		}
	}

	writeBlock("Throughput (requests/second) by cache-hit ratio:", func(p FigurePoint) string {
		return fmt.Sprintf("%.0f", p.Throughput)
	})
	b.WriteByte('\n')
	writeBlock("Average response time (msec) by cache-hit ratio:", func(p FigurePoint) string {
		return fmt.Sprintf("%.3f", float64(p.AvgLatency.Microseconds())/1000.0)
	})
	return b.String()
}
