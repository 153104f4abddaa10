// Command dummygoogle serves the simulated Google Web services over
// HTTP: the test double the paper's portal scenario calls (Section
// 5.2). It exposes the SOAP endpoint at / and the service WSDL at
// /wsdl. Besides the paper's three read-only operations, the
// dispatcher serves the mutable item operations (doGetItem, doPutItem,
// doListItems) backed by an in-memory store, so a cache in front of it
// can exercise write-through invalidation (see package invalidate).
//
// Usage:
//
//	dummygoogle -addr :8080                  # full SOAP dispatcher
//	dummygoogle -addr :8080 -fixed           # precomputed identical responses
//	dummygoogle -cache                       # server-side response cache (raw bodies) over the read-only operations
//	dummygoogle -cache -cache-rep xmltmpl    # ... resident as splice templates
//
// With -cache, the cache's counters and stage latencies are served at
// /debug/wscache.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	fixed := flag.Bool("fixed", false, "serve precomputed fixed responses (cheapest back end)")
	ttl := flag.Duration("ttl", time.Hour, "Cache-Control max-age stamped on responses (0 disables)")
	useCache := flag.Bool("cache", false, "wrap the dispatcher in the server-side response cache")
	cacheRep := flag.String("cache-rep", "raw", `resident representation for cached bodies: "raw" or "xmltmpl" (shared splice template per response shape)`)
	flag.Parse()

	if err := run(*addr, *fixed, *ttl, *useCache, *cacheRep); err != nil {
		fmt.Fprintln(os.Stderr, "dummygoogle:", err)
		os.Exit(1)
	}
}

func run(addr string, fixed bool, ttl time.Duration, useCache bool, cacheRep string) error {
	mux, err := newMux(fixed, ttl, useCache, cacheRep)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dummygoogle: serving %s (fixed=%v); WSDL at /wsdl\n", addr, fixed)
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}

// newMux builds the routes the flags describe: the SOAP endpoint at /,
// the WSDL at /wsdl and, with -cache, the response cache's registry at
// obs.DebugPath.
func newMux(fixed bool, ttl time.Duration, useCache bool, cacheRep string) (*http.ServeMux, error) {
	var reg *obs.Registry
	if useCache {
		reg = obs.NewRegistry()
	}
	soapHandler, err := newSOAPHandler(fixed, ttl, useCache, cacheRep, reg)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", soapHandler)
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		_, _ = w.Write([]byte(googleapi.WSDL))
	})
	if reg != nil {
		mux.Handle(obs.DebugPath, obs.Handler(reg))
	}
	return mux, nil
}

// newSOAPHandler builds the SOAP endpoint the flags describe; a
// response cache records into reg.
func newSOAPHandler(fixed bool, ttl time.Duration, useCache bool, cacheRep string, reg *obs.Registry) (http.Handler, error) {
	if useCache && fixed {
		return nil, fmt.Errorf("-cache has no effect with -fixed (responses are already precomputed)")
	}
	if ttl < 0 {
		return nil, fmt.Errorf("-ttl is %v; negative lifetimes are not valid (0 disables)", ttl)
	}
	if fixed {
		return googleapi.NewFixedResponseHandler(), nil
	}
	d, codec, err := googleapi.NewDispatcher()
	if err != nil {
		return nil, err
	}
	if ttl > 0 {
		d.SetValidatorPolicy(time.Now(), ttl)
	}
	if !useCache {
		return d, nil
	}
	body, err := cacheRepFor(rep.NewRegistry(codec.Registry(), codec), cacheRep)
	if err != nil {
		return nil, err
	}
	// The dispatcher also serves the mutable item operations, and the
	// server cache has no invalidation: caching doPutItem would swallow
	// the second identical write, caching doGetItem/doListItems would
	// serve items stale for -ttl after one. Admit only operations the
	// item graph declares no read or write set for — the paper's three
	// read-only ones.
	graph := googleapi.ItemGraph()
	return server.NewResponseCache(d, server.ResponseCacheConfig{
		TTL:       ttl,
		Body:      body,
		Cacheable: func(op string) bool { return !graph.Declared(op) },
		Obs:       reg,
	}), nil
}

// cacheRepFor resolves -cache-rep through the representation registry.
// The server cache replays bytes, so it takes only the representations
// whose hits are byte streams.
func cacheRepFor(reps *rep.Registry, name string) (rep.ValueStore, error) {
	var accepted []string
	for _, spec := range reps.Values() {
		if streams(spec) {
			accepted = append(accepted, spec.Name)
		}
	}
	spec, err := reps.ValueSpecFor(name)
	if err != nil || !streams(spec) {
		return nil, fmt.Errorf("-cache-rep %q: the server cache needs a representation whose hits are byte streams (have %s)",
			name, strings.Join(accepted, ", "))
	}
	return spec.Store, nil
}

// streams reports whether a representation's hits are byte streams. The
// registry gates exactly those on the consumer's consent
// (client.Context.AcceptStream), so such a representation is applicable
// to a captured envelope with consent and not without.
func streams(spec *rep.ValueSpec) bool {
	envelope := []byte("<x/>")
	return spec.Applicable(&client.Context{ResponseXML: envelope, AcceptStream: true}) &&
		!spec.Applicable(&client.Context{ResponseXML: envelope})
}
