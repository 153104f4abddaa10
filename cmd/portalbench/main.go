// Command portalbench regenerates the paper's portal-site scenario
// figures (Section 5.2): throughput and average response time of a
// portal backed by dummy Google Web services through the caching
// client, as the cache-hit ratio sweeps 0–100% for each cache value
// representation.
//
// Usage:
//
//	portalbench -figure 3                # 1 user (no concurrency)
//	portalbench -figure 4                # 25 concurrent users
//	portalbench -concurrency 64          # override the figure's user count
//	portalbench -requests 2000           # heavier run per point
//	portalbench -figure 3 -store "Pass by Reference"
//	portalbench -figure 3 -rep auto      # the Section 6 selector
//	portalbench -obs-dump                # print the final /debug/wscache snapshot
//	portalbench -obs-addr :9091          # serve it live while the sweep runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/googleapi"
	"repro/internal/obs"
)

func main() {
	figure := flag.Int("figure", 3, "figure to regenerate: 3 (sequential) or 4 (25 concurrent users)")
	concurrency := flag.Int("concurrency", 0, "simulated users; 0 means the figure's own count (1 or 25)")
	requests := flag.Int("requests", 1000, "portal page requests per measured point")
	hot := flag.Int("hot", 4, "distinct pre-warmed (hot) queries")
	storeFilter := flag.String("store", "", "run only the named cache method (substring match)")
	repName := flag.String("rep", "", `run a single representation by registry name ("sax", "auto", ...); overrides -store`)
	op := flag.String("op", googleapi.OpGoogleSearch, "back-end operation under load (doGoogleSearch, doSpellingSuggestion, doGetCachedPage)")
	format := flag.String("format", "text", `output format: "text" or "csv"`)
	obsDump := flag.Bool("obs-dump", false, "print the sweep's observability snapshot as JSON when done")
	obsAddr := flag.String("obs-addr", "", "serve the live observability snapshot at this address under "+obs.DebugPath)
	flag.Parse()

	cfg := runCfg{
		figure:      *figure,
		concurrency: *concurrency,
		requests:    *requests,
		hot:         *hot,
		storeFilter: *storeFilter,
		rep:         *repName,
		op:          *op,
		format:      *format,
		obsDump:     *obsDump,
		obsAddr:     *obsAddr,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "portalbench:", err)
		os.Exit(1)
	}
}

// runCfg carries the parsed command line.
type runCfg struct {
	figure      int
	concurrency int
	requests    int
	hot         int
	storeFilter string
	rep         string
	op          string
	format      string
	obsDump     bool
	obsAddr     string
}

func run(cfg runCfg) error {
	var concurrency int
	var title string
	switch cfg.figure {
	case 3:
		concurrency = 1
		title = "Throughput and average response time without concurrent access"
	case 4:
		concurrency = 25
		title = "Throughput and average response time with 25 concurrent accesses"
	default:
		return fmt.Errorf("no such figure %d (have 3 and 4)", cfg.figure)
	}
	if cfg.concurrency > 0 {
		concurrency = cfg.concurrency
		title = fmt.Sprintf("%s (concurrency %d)", title, concurrency)
	}

	stores := bench.FigureStores()
	if cfg.rep != "" {
		spec, err := bench.StoreSpecByName(cfg.rep)
		if err != nil {
			return err
		}
		stores = []bench.StoreSpec{spec}
	} else if cfg.storeFilter != "" {
		var filtered []bench.StoreSpec
		for _, s := range stores {
			if strings.Contains(strings.ToLower(s.Name), strings.ToLower(cfg.storeFilter)) {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("no cache method matches %q", cfg.storeFilter)
		}
		stores = filtered
	}

	// Observability: one registry accumulates across the whole sweep.
	// Beware that stage timing itself costs a little; leave both flags
	// off for the most faithful figures.
	var reg *obs.Registry
	if cfg.obsDump || cfg.obsAddr != "" {
		reg = obs.NewRegistry()
	}
	if cfg.obsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle(obs.DebugPath, obs.Handler(reg))
		srv := &http.Server{Addr: cfg.obsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "portalbench: obs server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "portalbench: observability at http://%s%s\n", cfg.obsAddr, obs.DebugPath)
	}

	fmt.Fprintf(os.Stderr, "portalbench: figure %d, op %s, %d requests/point, concurrency %d, %d methods × 6 ratios\n",
		cfg.figure, cfg.op, cfg.requests, concurrency, len(stores))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	series, err := bench.FigureContext(ctx, bench.FigureConfig{
		Concurrency:      concurrency,
		RequestsPerPoint: cfg.requests,
		Stores:           stores,
		HotQueries:       cfg.hot,
		Operation:        cfg.op,
		Obs:              reg,
	})
	if err != nil {
		return err
	}
	if cfg.format == "csv" {
		fmt.Print(bench.CSVFigure(series))
	} else {
		fmt.Print(bench.FormatFigure(fmt.Sprintf("Figure %d", cfg.figure), title, series))
	}
	if cfg.obsDump {
		body, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "observability snapshot:\n%s\n", body)
	}
	return nil
}
