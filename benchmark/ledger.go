package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/invalidate"
	"repro/internal/rep"
	"repro/internal/sax"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/tier"
)

// The direct-call ledger is the paper's Tables 2/3/6/7 at this
// repository's resolution: each representation's key generation,
// copy-in and copy-out, and the codec and engine calls around them,
// timed alone on the doGoogleSearch request and result the workloads
// use. A combination that does not apply (pass-by-reference to a
// mutable result) is absent, not zero.

const ledgerBatches = 11

// timeCall returns the median over ledgerBatches batches of the mean
// cost of f in ns. The iteration count is one of two fixed values,
// picked by a ten-call probe, so that microsecond calls get enough
// iterations and 30 µs calls do not take a second each; the smoke test
// divides both by div.
func timeCall(div int, f func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	iters := 2000 / div
	if time.Since(start) > 10*5*time.Microsecond {
		iters = 200 / div
	}
	batches := make([]float64, ledgerBatches)
	for b := range batches {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		batches[b] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(batches), nil
}

// fabricate builds a post-invocation context as the pivot leaves one.
func fabricate(codec *soap.Codec, op string, ps []soap.Param, result any) (*client.Context, error) {
	respXML, err := codec.EncodeResponse(googleapi.Namespace, op, result)
	if err != nil {
		return nil, err
	}
	events, err := sax.Record(respXML)
	if err != nil {
		return nil, err
	}
	return &client.Context{
		Ctx:            context.Background(),
		Endpoint:       "http://127.0.0.1/",
		Namespace:      googleapi.Namespace,
		Operation:      op,
		SOAPAction:     soapAction,
		Params:         ps,
		ResponseXML:    respXML,
		ResponseEvents: events,
		Result:         result,
		// The streaming representations apply only to consumers that
		// accept byte streams; the others ignore the flag.
		AcceptStream: true,
	}, nil
}

// ledger runs every direct-call measurement and returns name → value.
func ledger(div int) (map[string]value, error) {
	out := make(map[string]value)
	// put times one call; after the first failure it does nothing, and
	// the failure is returned at the end.
	var failed error
	put := func(name string, f func() error) {
		if failed != nil {
			return
		}
		ns, err := timeCall(div, f)
		if err != nil {
			failed = fmt.Errorf("ledger: %s: %w", name, err)
			return
		}
		out[name] = value{Value: ns, Unit: "ns"}
	}

	types, codec, err := newCodec()
	if err != nil {
		return nil, err
	}
	reg := rep.NewRegistry(types, codec)
	const query = "ledger fixed query"
	search, err := fabricate(codec, googleapi.OpGoogleSearch, searchParams(query, 0), googleapi.Search(query, 0, 10))
	if err != nil {
		return nil, err
	}

	buf := make([]byte, 0, 4096)
	for _, spec := range reg.Keys() {
		gen := spec.Gen
		f := func() error { _, err := gen.Key(search); return err }
		if ka, ok := gen.(rep.KeyAppender); ok {
			f = func() error { _, err := ka.AppendKey(buf[:0], search); return err }
		}
		put("rep.key."+spec.Name+"_ns", f)
	}

	copyOut := func(store rep.ValueStore, payload any) func() error {
		return func() error {
			v, err := store.Load(payload)
			if err != nil {
				return err
			}
			// A streamed hit is consumed by replaying it.
			if wt, ok := v.(io.WriterTo); ok {
				_, err = wt.WriteTo(io.Discard)
			}
			return err
		}
	}
	for _, spec := range reg.Values() {
		if !spec.Applicable(search) {
			continue
		}
		store := spec.Store
		payload, size, err := store.Store(search)
		if err != nil {
			continue
		}
		base := "rep.store." + spec.Name
		out[base+".entry_bytes"] = value{Value: float64(size), Unit: "B"}
		put(base+".copyin_ns", func() error { _, _, err := store.Store(search); return err })
		put(base+".copyout_ns", copyOut(store, payload))
	}

	// The other two result classes of the paper (small simple, large
	// simple), through the static Section 6 classifier.
	auto, err := reg.Store("auto")
	if err != nil {
		return nil, err
	}
	const phrase, pageURL = "web servises cashing", "http://example.com/ledger"
	for _, c := range []struct {
		suffix string
		op     string
		ps     []soap.Param
		result any
	}{
		{"spelling", googleapi.OpSpellingSuggestion, googleapi.SpellingParams("bench-key", phrase), googleapi.SpellingSuggestion(phrase)},
		{"page", googleapi.OpGetCachedPage, googleapi.CachedPageParams("bench-key", pageURL), googleapi.CachedPage(pageURL)},
	} {
		ictx, err := fabricate(codec, c.op, c.ps, c.result)
		if err != nil {
			return nil, err
		}
		ictx.AcceptStream = false
		payload, _, err := auto.Store(ictx)
		if err != nil {
			return nil, err
		}
		put("rep.store.auto.copyout_ns."+c.suffix, copyOut(auto, payload))
	}

	for _, spec := range reg.WireSpecs() {
		ws := spec.Store.(rep.WireStore)
		if !spec.Applicable(search) {
			continue
		}
		payload, _, err := ws.Store(search)
		if err != nil {
			continue
		}
		data, err := ws.EncodeWire(payload)
		if err != nil {
			continue
		}
		put("rep.wire."+spec.Name+".decode_ns", func() error { _, err := ws.DecodeWire(data); return err })
	}

	put("soap.encode_request_ns", func() error {
		_, err := codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch, search.Params)
		return err
	})
	put("soap.decode_response_ns", func() error {
		_, err := codec.DecodeEnvelope(search.ResponseXML)
		return err
	})

	tpl, texts, err := sax.BuildTemplate(search.ResponseEvents)
	if err != nil {
		return nil, err
	}
	vals := make([]string, len(texts))
	for i, t := range texts {
		vals[i] = sax.EscapeValue(t)
	}
	splice := make([]byte, 0, tpl.RenderedSize(vals))
	put("sax.template.splice_ns", func() error {
		splice = tpl.AppendSplice(splice[:0], vals)
		return nil
	})

	disp, dcodec, err := googleapi.NewDispatcher()
	if err != nil {
		return nil, err
	}
	rc := server.NewResponseCache(disp, server.ResponseCacheConfig{})
	reqXML, err := dcodec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch, search.Params)
	if err != nil {
		return nil, err
	}
	put("server.cache.handle_hit_ns", func() error {
		_, _, err := rc.Handle(reqXML)
		return err
	})
	if hits, misses := rc.Stats(); failed == nil && (misses != 1 || hits == 0) {
		return nil, fmt.Errorf("ledger: server cache saw %d hits, %d misses; want one fill then hits", hits, misses)
	}

	// The daemon's engine with no socket: Cache.Get by tier key.
	dcache, err := core.New(core.Config{
		KeyGen:      rep.NewStringKey(),
		Store:       rep.NewCloneCopyStore(),
		MaxBytes:    daemonMaxBytes,
		DefaultTTL:  entryTTL,
		Invalidator: invalidate.New(nil, nil),
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tk := tier.KeyOf([]byte(query))
	if err := dcache.Put(ctx, tk, tier.Entry{Rep: "raw", Value: search.ResponseXML, TTL: entryTTL}); err != nil {
		return nil, err
	}
	put("core.tier.get_ns", func() error {
		if _, ok, err := dcache.Get(ctx, tk); err != nil || !ok {
			return fmt.Errorf("tier get: ok=%v err=%v", ok, err)
		}
		return nil
	})
	return out, failed
}
