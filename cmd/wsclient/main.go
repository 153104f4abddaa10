// Command wsclient is a generic WSDL-driven SOAP client: it reads a
// service description, coerces command-line arguments to the declared
// parameter types, invokes the operation over HTTP, and prints the
// decoded application object. With -cache it keeps a response cache for
// the life of the process and reports hits (useful with -repeat).
//
// Usage:
//
//	wsclient -wsdl google -endpoint http://localhost:8080/ \
//	    doSpellingSuggestion key=demo phrase="worl peace"
//
//	wsclient -wsdl service.wsdl -cache -repeat 3 \
//	    doGoogleSearch key=demo q=golang start=0 maxResults=10 \
//	    filter=false restrict= safeSearch=false lr= ie=latin1 oe=latin1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/tier"
	"repro/internal/transport"
	"repro/internal/typemap"
	"repro/internal/wsdl"
	"repro/internal/xsd"
)

func main() {
	wsdlSrc := flag.String("wsdl", "google", `WSDL source: "google" (embedded) or a file path`)
	endpoint := flag.String("endpoint", "", "endpoint override (default: the WSDL's soap:address)")
	useCache := flag.Bool("cache", false, "enable the client response cache")
	l2 := flag.String("l2", "", "comma-separated wscached addresses for a shared L2 tier (implies -cache)")
	repName := flag.String("rep", "auto", `cache value representation: "auto" (the Section 6 selector) or a registry name (sax, dom, gob, raw, xmltmpl, ...); pinning a streaming rep (raw, xmltmpl) makes hits yield replayable bytes instead of objects`)
	repeat := flag.Int("repeat", 1, "invoke the operation this many times")
	timeout := flag.Duration("timeout", 30*time.Second, "per-call timeout")
	retries := flag.Int("retries", 1, "total attempts per call (>1 retries transient transport failures)")
	maxResp := flag.Int64("max-response", 0, "response size cap in bytes (0 = default, -1 = unlimited)")
	showObs := flag.Bool("obs", false, "print the observability snapshot (stage latencies, counters) as JSON after the calls")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: wsclient [flags] <operation> [name=value ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg := runConfig{
		wsdlSrc:   *wsdlSrc,
		endpoint:  *endpoint,
		operation: flag.Arg(0),
		args:      flag.Args()[1:],
		useCache:  *useCache || *l2 != "",
		l2:        *l2,
		rep:       *repName,
		repeat:    *repeat,
		timeout:   *timeout,
		retries:   *retries,
		maxResp:   *maxResp,
		showObs:   *showObs,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "wsclient:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed command line.
type runConfig struct {
	wsdlSrc   string
	endpoint  string
	operation string
	args      []string
	useCache  bool
	l2        string
	rep       string
	repeat    int
	timeout   time.Duration
	retries   int
	maxResp   int64
	showObs   bool
}

func run(cfg runConfig) error {
	wsdlSrc, endpoint, operation, args := cfg.wsdlSrc, cfg.endpoint, cfg.operation, cfg.args
	useCache, repeat, timeout := cfg.useCache, cfg.repeat, cfg.timeout
	doc := []byte(googleapi.WSDL)
	if wsdlSrc != "google" {
		var err error
		doc, err = os.ReadFile(wsdlSrc)
		if err != nil {
			return err
		}
	}
	defs, err := wsdl.Parse(doc)
	if err != nil {
		return err
	}

	reg := typemap.NewRegistry()
	if defs.TargetNamespace == googleapi.Namespace {
		if err := googleapi.RegisterTypes(reg); err != nil {
			return err
		}
	}
	codec := soap.NewCodec(reg)

	// With -obs one registry spans the whole stack (cache, client
	// pivot, retries, transport) so the final snapshot is coherent.
	var obsReg *obs.Registry
	if cfg.showObs {
		obsReg = obs.NewRegistry()
	}

	var handlers []client.Handler
	var cache *core.Cache
	var remote *cluster.Remote
	if useCache {
		// -rep resolves through the registry, which is also kept as
		// coreCfg.Rep: a tier stack needs a wire-capable selector even
		// when the L1 representation is pinned by -rep.
		reps := rep.NewRegistry(reg, codec)
		store, err := reps.Store(cfg.rep)
		if err != nil {
			return err
		}
		coreCfg := core.Config{
			KeyGen:     rep.NewStringKey(),
			Store:      store,
			Rep:        reps,
			DefaultTTL: time.Hour,
			Obs:        obsReg,
		}
		if cfg.l2 != "" {
			// The invalidator is what carries epoch bumps between this
			// process's L1 and the shared daemon; without one the tier
			// still works, TTL-only.
			inv := invalidate.New(nil, obsReg)
			coreCfg.Invalidator = inv
			remote, err = cluster.New(cluster.Config{
				Addrs:       strings.Split(cfg.l2, ","),
				Inv:         inv,
				BaseContext: context.Background(),
			})
			if err != nil {
				return err
			}
			coreCfg.Tiers = []tier.Tier{remote}
		}
		if cache, err = core.New(coreCfg); err != nil {
			return err
		}
		handlers = append(handlers, cache)
	}
	if remote != nil {
		defer remote.Close()
	}

	opts := client.Options{Handlers: handlers, Obs: obsReg}
	if cfg.retries > 1 {
		opts.Retry = &transport.RetryPolicy{MaxAttempts: cfg.retries, Obs: obsReg}
	}
	svc, err := client.NewService(defs, codec, &transport.HTTP{MaxResponseBytes: cfg.maxResp, Obs: obsReg}, client.ServiceConfig{
		Endpoint: endpoint,
		Options:  opts,
	})
	if err != nil {
		return err
	}
	call, err := svc.Call(operation)
	if err != nil {
		return err
	}

	params, err := buildParams(defs, operation, args)
	if err != nil {
		return err
	}

	for i := 0; i < repeat; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		ictx, err := call.InvokeContext(ctx, params...)
		cancel()
		if err != nil {
			return err
		}
		fmt.Printf("call %d (%v, hit=%v):\n", i+1, time.Since(start).Round(time.Microsecond), ictx.CacheHit)
		printResult(ictx.Result)
	}
	if cache != nil {
		s := cache.Stats()
		fmt.Printf("cache: %d hits, %d misses, %d bytes\n", s.Hits, s.Misses, s.Bytes)
	}
	if obsReg != nil {
		body, err := json.MarshalIndent(obsReg.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("observability snapshot:\n%s\n", body)
	}
	return nil
}

// buildParams coerces name=value arguments to the types the WSDL
// declares for the operation's input message, in message-part order.
func buildParams(defs *wsdl.Definitions, operation string, args []string) ([]soap.Param, error) {
	in, _, err := defs.OperationIO(operation)
	if err != nil {
		return nil, err
	}
	given := make(map[string]string, len(args))
	for _, a := range args {
		name, value, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q is not name=value", a)
		}
		given[name] = value
	}
	params := make([]soap.Param, 0, len(in.Parts))
	for _, part := range in.Parts {
		raw, ok := given[part.Name]
		if !ok {
			return nil, fmt.Errorf("missing argument %s (type %s)", part.Name, part.Type.Local)
		}
		delete(given, part.Name)
		v, err := coerce(part.Type, raw)
		if err != nil {
			return nil, fmt.Errorf("argument %s: %w", part.Name, err)
		}
		params = append(params, soap.Param{Name: part.Name, Value: v})
	}
	for name := range given {
		return nil, fmt.Errorf("unknown argument %s (operation %s takes %d parameters)", name, operation, len(in.Parts))
	}
	return params, nil
}

// coerce converts a textual argument to the Go value for a schema type.
func coerce(q typemap.QName, raw string) (any, error) {
	if !xsd.IsBuiltin(q) {
		return nil, fmt.Errorf("complex parameter type %s not supported on the command line", q)
	}
	switch q.Local {
	case "string", "anyURI", "dateTime":
		return raw, nil
	case "boolean":
		return strconv.ParseBool(raw)
	case "int", "integer", "short", "byte":
		return strconv.Atoi(raw)
	case "long":
		return strconv.ParseInt(raw, 10, 64)
	case "unsignedInt", "unsignedLong":
		return strconv.ParseUint(raw, 10, 64)
	case "float":
		f, err := strconv.ParseFloat(raw, 32)
		return float32(f), err
	case "double", "decimal":
		return strconv.ParseFloat(raw, 64)
	case "base64Binary":
		return []byte(raw), nil
	default:
		return nil, fmt.Errorf("unsupported parameter type %s", q)
	}
}

// printResult renders the decoded application object.
func printResult(result any) {
	switch r := result.(type) {
	case *googleapi.GoogleSearchResult:
		fmt.Printf("  %d of about %d results (%.3fs) for %q\n",
			len(r.ResultElements), r.EstimatedTotalResultsCount, r.SearchTime, r.SearchQuery)
		for i := range r.ResultElements {
			e := &r.ResultElements[i]
			fmt.Printf("  %d. %s\n     %s\n", i+1, e.Title, e.URL)
		}
	case []byte:
		const max = 200
		s := string(r)
		if len(s) > max {
			s = s[:max] + fmt.Sprintf("... (%d bytes total)", len(r))
		}
		fmt.Printf("  %s\n", s)
	case nil:
		fmt.Println("  <no result>")
	default:
		fmt.Printf("  %+v\n", r)
	}
}
