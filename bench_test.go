// Benchmarks regenerating the paper's evaluation (Section 5), one
// benchmark family per table/figure:
//
//   - BenchmarkTable6_*: cache-key generation per method per operation
//   - BenchmarkTable7_*: cached-data retrieval per representation per op
//   - BenchmarkTable8 / BenchmarkTable9: memory sizes (reported as
//     custom metrics, bytes do not vary with b.N)
//   - BenchmarkFigure3 / BenchmarkFigure4: the portal scenario sweep
//     (run with -benchtime 1x; each iteration is a full sweep)
//   - BenchmarkAblation*: the design-choice ablations from DESIGN.md §5
package repro_test

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/sax"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/transport"
)

// env is shared by all benchmarks; building it is cheap and
// deterministic.
func env(b *testing.B) *bench.Env {
	b.Helper()
	e, err := bench.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// --- Table 6: cache key generation -----------------------------------

func benchKeyGen(b *testing.B, gen func(e *bench.Env) rep.KeyGenerator) {
	e := env(b)
	g := gen(e)
	for _, op := range e.Ops {
		b.Run(op.Label, func(b *testing.B) {
			if _, err := g.Key(op.Ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Key(op.Ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable6_KeyXMLMessage(b *testing.B) {
	benchKeyGen(b, func(e *bench.Env) rep.KeyGenerator { return rep.NewXMLMessageKey(e.Codec) })
}

func BenchmarkTable6_KeyBinarySerialization(b *testing.B) {
	benchKeyGen(b, func(e *bench.Env) rep.KeyGenerator { return rep.NewBinserKey(e.Reg) })
}

func BenchmarkTable6_KeyStringConcat(b *testing.B) {
	benchKeyGen(b, func(e *bench.Env) rep.KeyGenerator { return rep.NewStringKey() })
}

// --- Table 7: cached data retrieval -----------------------------------

// benchStoreLoad measures ValueStore.Load per operation; inapplicable
// combinations are skipped, mirroring the paper's n/a cells.
func benchStoreLoad(b *testing.B, mk func(e *bench.Env) rep.ValueStore, skip map[string]bool) {
	e := env(b)
	store := mk(e)
	for _, op := range e.Ops {
		b.Run(op.Label, func(b *testing.B) {
			if skip[op.Op] {
				b.Skipf("n/a: %s does not apply to %s (paper Table 7)", store.Name(), op.Op)
			}
			payload, _, err := store.Store(op.Ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := store.Load(payload); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Load(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable7_LoadXMLMessage(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewXMLMessageStore(e.Codec) }, nil)
}

func BenchmarkTable7_LoadSAXEvents(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewSAXEventsStore(e.Codec) }, nil)
}

func BenchmarkTable7_LoadBinarySerialization(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewBinserStore(e.Reg) }, nil)
}

func BenchmarkTable7_LoadReflectCopy(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewReflectCopyStore(e.Reg) },
		map[string]bool{googleapi.OpSpellingSuggestion: true})
}

func BenchmarkTable7_LoadCloneCopy(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewCloneCopyStore() },
		map[string]bool{googleapi.OpSpellingSuggestion: true, googleapi.OpGetCachedPage: true})
}

func BenchmarkTable7_LoadPassByReference(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewRefStore(e.Reg, true) }, nil)
}

// BenchmarkTable7_LoadDOMTree is an extra row beyond the paper's six:
// the DOM post-parsing representation Section 3.3 names alongside SAX
// event sequences.
func BenchmarkTable7_LoadDOMTree(b *testing.B) {
	benchStoreLoad(b, func(e *bench.Env) rep.ValueStore { return rep.NewDOMStore(e.Codec) }, nil)
}

// --- Tables 8 and 9: memory sizes --------------------------------------

// BenchmarkTable8 reports key sizes as custom metrics (bytes are not a
// function of b.N; the loop exists to satisfy the benchmark contract).
func BenchmarkTable8(b *testing.B) {
	e := env(b)
	t8, err := e.Table8()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = t8
	}
	for _, row := range t8.Rows {
		for j, col := range t8.Columns {
			b.ReportMetric(row.Cells[j].Value, metricName(row.Name, col))
		}
	}
}

// BenchmarkTable9 reports cached-object sizes as custom metrics.
func BenchmarkTable9(b *testing.B) {
	e := env(b)
	t9, err := e.Table9()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = t9
	}
	for _, row := range t9.Rows {
		for j, col := range t9.Columns {
			b.ReportMetric(row.Cells[j].Value, metricName(row.Name, col))
		}
	}
}

// metricName builds a compact go-bench metric suffix.
func metricName(row, col string) string {
	clean := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				out = append(out, r)
			}
		}
		return string(out)
	}
	return fmt.Sprintf("%s_%s_bytes", clean(row), clean(col))
}

// --- Figures 3 and 4: portal scenario ----------------------------------

// benchFigure runs one full sweep per iteration; invoke with
// -benchtime 1x for a single sweep, and read the printed series.
func benchFigure(b *testing.B, concurrency int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := bench.FigureContext(context.Background(), bench.FigureConfig{
			Concurrency:      concurrency,
			RequestsPerPoint: 300,
			HotQueries:       4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", bench.FormatFigure(
				fmt.Sprintf("Figure (concurrency %d)", concurrency),
				"portal scenario sweep", series))
		}
	}
}

func BenchmarkFigure3_PortalSequential(b *testing.B) { benchFigure(b, 1) }

func BenchmarkFigure4_PortalConcurrent25(b *testing.B) { benchFigure(b, 25) }

// BenchmarkPortalConcurrency sweeps the simulated-user count over the
// all-hit portal scenario with the cheapest representation (pass by
// reference), so the shared cache core — not response materialization —
// dominates each request. Throughput is reported per point; on a
// multi-core host the sharded core should hold it near-flat as users
// grow, where a single global lock would flatline.
func BenchmarkPortalConcurrency(b *testing.B) {
	var ref []bench.StoreSpec
	for _, s := range bench.FigureStores() {
		if s.Name == "Pass by Reference" {
			ref = append(ref, s)
		}
	}
	if len(ref) != 1 {
		b.Fatal("Pass by Reference store spec not found")
	}
	for _, users := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series, err := bench.FigureContext(context.Background(), bench.FigureConfig{
					Concurrency:      users,
					RequestsPerPoint: 2000,
					HitRatios:        []float64{1},
					Stores:           ref,
					HotQueries:       4,
				})
				if err != nil {
					b.Fatal(err)
				}
				pt := series[0].Points[0]
				b.ReportMetric(pt.Throughput, "req/s")
				b.ReportMetric(float64(pt.AvgLatency.Nanoseconds()), "latency-ns")
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationGobVsBinser documents why encoding/gob is not the
// serialization representation: its per-message overhead at these
// sizes.
func BenchmarkAblationGobVsBinser(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	for _, mk := range []func() rep.ValueStore{
		func() rep.ValueStore { return rep.NewGobStore(e.Reg) },
		func() rep.ValueStore { return rep.NewBinserStore(e.Reg) },
	} {
		store := mk()
		b.Run(store.Name(), func(b *testing.B) {
			payload, _, err := store.Store(op.Ctx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Load(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStoreCopy compares storing with copy-on-store (the
// call-by-copy-correct design) against a hypothetical reference store,
// quantifying what correctness costs on the miss path.
func BenchmarkAblationStoreCopy(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	stores := []rep.ValueStore{
		rep.NewReflectCopyStore(e.Reg), // deep copy on store
		rep.NewRefStore(e.Reg, true),   // no copy on store
	}
	for _, store := range stores {
		b.Run(store.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := store.Store(op.Ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAutoClassifier measures the overhead of the Section
// 6 run-time classifier against a statically configured store.
func BenchmarkAblationAutoClassifier(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	static := rep.NewCloneCopyStore() // what Auto picks for this type
	auto := rep.NewAutoStore(e.Reg, e.Codec)

	b.Run("static clone", func(b *testing.B) {
		payload, _, err := static.Store(op.Ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := static.Load(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("auto classifier", func(b *testing.B) {
		payload, _, err := auto.Store(op.Ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := auto.Load(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParseVsReplay isolates the tokenization cost the SAX
// representation saves: full parse+deserialize vs replay+deserialize of
// the same response.
func BenchmarkAblationParseVsReplay(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	b.Run("parse+deserialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Codec.DecodeEnvelope(op.Ctx.ResponseXML); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay+deserialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Codec.DecodeEnvelopeEvents(op.Ctx.ResponseEvents); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sax.Parse(op.Ctx.ResponseXML, sax.NopHandler{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEventRecordingTee measures the client-side cost of
// recording the SAX event sequence during the response parse (what a
// miss pays when its store reads events, client.Context.RecordEvents):
// one parse teed to two consumers vs one.
func BenchmarkAblationEventRecordingTee(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	b.Run("decode only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dh := e.Codec.NewDecodeHandler()
			if err := sax.Parse(op.Ctx.ResponseXML, dh.Handler()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode+record tee", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dh := e.Codec.NewDecodeHandler()
			rec := sax.NewRecorder()
			if err := sax.Parse(op.Ctx.ResponseXML, sax.Tee(rec, dh.Handler())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKeyLength isolates the table-lookup cost of key
// representation: longer keys (the XML message) hash and compare
// slower than compact string keys, on top of their generation cost.
func BenchmarkAblationKeyLength(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	gens := []rep.KeyGenerator{
		rep.NewXMLMessageKey(e.Codec),
		rep.NewBinserKey(e.Reg),
		rep.NewStringKey(),
	}
	for _, g := range gens {
		key, err := g.Key(op.Ctx)
		if err != nil {
			b.Fatal(err)
		}
		table := map[string]int{key: 1}
		// Populate with sibling keys so the map has realistic buckets.
		for i := 0; i < 1000; i++ {
			c2 := *op.Ctx
			c2.Operation = fmt.Sprintf("op%d", i)
			k2, err := g.Key(&c2)
			if err != nil {
				b.Fatal(err)
			}
			table[k2] = i
		}
		b.Run(fmt.Sprintf("%s/len=%d", g.Name(), len(key)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if table[key] != 1 {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

// BenchmarkAblationScannerVsStdlib compares the from-scratch tokenizer
// against encoding/xml on the GoogleSearch response, validating that
// the substrate's XML costs are not artificially inflated.
func BenchmarkAblationScannerVsStdlib(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	doc := op.Ctx.ResponseXML

	b.Run("internal xmltext+sax", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sax.Parse(doc, sax.NopHandler{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib encoding/xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec := xml.NewDecoder(bytes.NewReader(doc))
			for {
				_, err := dec.Token()
				if err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationEventArena compares the naive []sax.Event cache
// payload against the string-interned compact form: memory (reported as
// a metric) versus per-hit replay cost.
func BenchmarkAblationEventArena(b *testing.B) {
	e := env(b)
	op, _ := e.Fixture(googleapi.OpGoogleSearch)
	stores := []rep.ValueStore{
		rep.NewSAXEventsStore(e.Codec),
		rep.NewCompactSAXStore(e.Codec),
	}
	for _, store := range stores {
		b.Run(store.Name(), func(b *testing.B) {
			payload, size, err := store.Store(op.Ctx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(size), "payload_bytes")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Load(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEviction runs a cache under byte pressure vs
// unbounded, measuring the cost of LRU bookkeeping and eviction on the
// invocation path.
func BenchmarkAblationEviction(b *testing.B) {
	for _, tc := range []struct {
		name     string
		maxBytes int
	}{
		{"unbounded", 0},
		{"64KiB budget", 64 << 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			disp, codec, err := googleapi.NewDispatcher()
			if err != nil {
				b.Fatal(err)
			}
			cache := core.MustNew(core.Config{
				KeyGen:     rep.NewStringKey(),
				Store:      rep.NewAutoStore(codec.Registry(), codec),
				DefaultTTL: time.Hour,
				MaxBytes:   tc.maxBytes,
			})
			call := client.NewCall(codec, &transport.InProcess{Handler: disp},
				googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
				client.Options{Handlers: []client.Handler{cache}})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params := googleapi.SearchParams("k", fmt.Sprintf("query %d", i%256), 0, 10, false, "", false, "")
				if _, err := call.Invoke(ctx, params...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationServerVsClientCache compares where the cache lives:
// client-side caching (the paper's design) eliminates the whole
// pipeline on a hit; server-side response caching still pays request
// serialization, transport, response parsing and deserialization on
// every call. The paper's preference for client-side caching follows
// directly (Section 1: "client-side caching can potentially achieve
// the greatest reduction").
func BenchmarkAblationServerVsClientCache(b *testing.B) {
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()

	b.Run("server-side cache", func(b *testing.B) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			b.Fatal(err)
		}
		cached := server.NewResponseCache(disp, server.ResponseCacheConfig{TTL: time.Hour})
		call := client.NewCall(codec, &transport.InProcess{Handler: cached},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{})
		if _, err := call.Invoke(ctx, params...); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("client-side cache", func(b *testing.B) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			b.Fatal(err)
		}
		cache := core.MustNew(core.Config{
			KeyGen:     rep.NewStringKey(),
			Store:      rep.NewAutoStore(codec.Registry(), codec),
			DefaultTTL: time.Hour,
		})
		call := client.NewCall(codec, &transport.InProcess{Handler: disp},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: []client.Handler{cache}})
		if _, err := call.Invoke(ctx, params...); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("both", func(b *testing.B) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			b.Fatal(err)
		}
		cached := server.NewResponseCache(disp, server.ResponseCacheConfig{TTL: time.Hour})
		cache := core.MustNew(core.Config{
			KeyGen:     rep.NewStringKey(),
			Store:      rep.NewAutoStore(codec.Registry(), codec),
			DefaultTTL: time.Hour,
		})
		call := client.NewCall(codec, &transport.InProcess{Handler: cached},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: []client.Handler{cache}})
		if _, err := call.Invoke(ctx, params...); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRevalidation compares refilling an expired entry
// with a full response against refreshing it with a 304 validator
// answer (the HTTP consistency integration, paper Section 3.2).
func BenchmarkAblationRevalidation(b *testing.B) {
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()
	newStack := func(revalidate bool) (*client.Call, func()) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			b.Fatal(err)
		}
		disp.SetValidatorPolicy(time.Now().Add(-24*time.Hour), time.Minute)
		nowSec := new(int64)
		atomic.StoreInt64(nowSec, time.Now().Unix())
		cache := core.MustNew(core.Config{
			KeyGen:     rep.NewStringKey(),
			Store:      rep.NewAutoStore(codec.Registry(), codec),
			DefaultTTL: time.Minute,
			Revalidate: revalidate,
			Clock:      func() time.Time { return time.Unix(atomic.LoadInt64(nowSec), 0) },
		})
		call := client.NewCall(codec, &transport.InProcess{Handler: disp},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: []client.Handler{cache}})
		expire := func() { atomic.AddInt64(nowSec, 120) }
		return call, expire
	}
	for _, mode := range []struct {
		name       string
		revalidate bool
	}{
		{"full refill", false},
		{"304 revalidate", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			call, expire := newStack(mode.revalidate)
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expire() // force the entry stale before each call
				if _, err := call.Invoke(ctx, params...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd compares a full uncached invocation against a
// cache-hit invocation through the complete middleware stack — the
// end-to-end version of the paper's headline claim.
func BenchmarkEndToEnd(b *testing.B) {
	newCall := func(withCache bool) (*client.Call, error) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			return nil, err
		}
		var handlers []client.Handler
		if withCache {
			handlers = append(handlers, core.MustNew(core.Config{
				KeyGen:     rep.NewStringKey(),
				Store:      rep.NewAutoStore(codec.Registry(), codec),
				DefaultTTL: time.Hour,
			}))
		}
		return client.NewCall(codec, &transport.InProcess{Handler: disp},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: handlers}), nil
	}
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()

	b.Run("uncached", func(b *testing.B) {
		call, err := newCall(false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache hit", func(b *testing.B) {
		call, err := newCall(true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := call.Invoke(ctx, params...); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// repHitCall builds a full middleware stack whose client cache uses
// core's default selector (the static Section 6 classifier), for
// steady-state hit-path comparisons.
func repHitCall(tb testing.TB) *client.Call {
	tb.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		tb.Fatal(err)
	}
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Hour,
	})
	return client.NewCall(codec, &transport.InProcess{Handler: disp},
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
		client.Options{Handlers: []client.Handler{cache}})
}

// diffHitCall builds a full middleware stack whose client cache is
// statically pinned to one streaming representation and whose call
// opts into streamed hits, for the DESIGN.md §5i differential-
// serialization benchmarks. The cache records the response's events
// itself when the representation reads them (xmltmpl builds its
// template from the sequence; raw replay needs only the response
// bytes).
func diffHitCall(tb testing.TB, repName string) *client.Call {
	tb.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		tb.Fatal(err)
	}
	reg := rep.NewRegistry(codec.Registry(), codec)
	spec, err := reg.ValueSpecFor(repName)
	if err != nil {
		tb.Fatal(err)
	}
	cache := core.MustNew(core.Config{
		KeyGen:     rep.NewStringKey(),
		Store:      spec.Store,
		DefaultTTL: time.Hour,
	})
	return client.NewCall(codec, &transport.InProcess{Handler: disp},
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
		client.Options{AcceptStream: true, Handlers: []client.Handler{cache}})
}

// streamHit runs one full-stack hit and replays the streamed response
// into w.
func streamHit(tb testing.TB, call *client.Call, ctx context.Context,
	params []soap.Param, w io.Writer) {
	ictx, err := call.InvokeContext(ctx, params...)
	if err != nil {
		tb.Fatal(err)
	}
	wt, ok := ictx.Stream()
	if !ok {
		tb.Fatalf("stream-accepting invocation yields no stream (result %T)", ictx.Result)
	}
	if _, err := wt.WriteTo(w); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDiffHit is the headline comparison for differential
// serialization and zero-copy replay (DESIGN.md §5i): a steady-state
// full-stack cache hit under the object-representation baselines
// against the two streaming representations. The baselines hand back a
// materialized object; the streaming rows additionally replay the
// serialized response into a writer — strictly more delivered work —
// and must still be the cheapest rows in the table.
func BenchmarkDiffHit(b *testing.B) {
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()

	b.Run("baseline auto", func(b *testing.B) {
		call := repHitCall(b)
		if _, err := call.Invoke(ctx, params...); err != nil { // warm: fill the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := call.Invoke(ctx, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name string
		rep  string
	}{
		{"raw replay", "raw"},
		{"xmltmpl splice", "xmltmpl"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			call := diffHitCall(b, tc.rep)
			streamHit(b, call, ctx, params, io.Discard) // warm: fill entry, grow pool buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				streamHit(b, call, ctx, params, io.Discard)
			}
		})
	}
}

// TestDiffHitAllocs is the §5i allocation guard: a steady-state
// full-stack hit that replays the response must allocate at most twice
// per call (the invocation context; everything else rides pooled or
// immutable state). Guarded for both streaming representations.
func TestDiffHitAllocs(t *testing.T) {
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		rep  string
	}{
		{"raw", "raw"},
		{"xmltmpl", "xmltmpl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := diffHitCall(t, tc.rep)
			streamHit(t, call, ctx, params, io.Discard) // fill
			streamHit(t, call, ctx, params, io.Discard) // settle pools
			allocs := testing.AllocsPerRun(200, func() {
				streamHit(t, call, ctx, params, io.Discard)
			})
			if allocs > 2 {
				t.Errorf("steady-state %s hit allocates %.1f times per call, want <= 2", tc.rep, allocs)
			}
		})
	}
}

// BenchmarkObsOverhead measures what the observability layer costs on
// the hottest path, a cache hit through the full middleware stack.
// "off" is the default configuration (no registry, no tracer): stage
// timing is compiled out behind a single bool, so this variant must
// stay within noise (<5%) of the pre-instrumentation baseline.
// "registry" pays for clock reads plus histogram updates per stage,
// and "registry+tracer" adds the callback dispatch.
func BenchmarkObsOverhead(b *testing.B) {
	newCall := func(reg *obs.Registry, tracer obs.Tracer) (*client.Call, error) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			return nil, err
		}
		cache := core.MustNew(core.Config{
			KeyGen:     rep.NewStringKey(),
			Store:      rep.NewAutoStore(codec.Registry(), codec),
			DefaultTTL: time.Hour,
			Obs:        reg,
			Tracer:     tracer,
		})
		return client.NewCall(codec, &transport.InProcess{Handler: disp},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: []client.Handler{cache},
				Obs: reg, Tracer: tracer}), nil
	}
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()
	nopTracer := obs.TracerFunc(func(string, obs.Stage, string, time.Duration, error) {})

	for _, tc := range []struct {
		name   string
		reg    *obs.Registry
		tracer obs.Tracer
	}{
		{"off", nil, nil},
		{"registry", obs.NewRegistry(), nil},
		{"registry+tracer", obs.NewRegistry(), nopTracer},
	} {
		b.Run(tc.name, func(b *testing.B) {
			call, err := newCall(tc.reg, tc.tracer)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := call.Invoke(ctx, params...); err != nil { // warm: fill the entry
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := call.Invoke(ctx, params...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSOAPCodec tracks the substrate itself: encoding and decoding
// the Table 5 payloads.
func BenchmarkSOAPCodec(b *testing.B) {
	e := env(b)
	for _, op := range e.Ops {
		b.Run("encode/"+op.Label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Codec.EncodeResponse(googleapi.Namespace, op.Op, op.Ctx.Result); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+op.Label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Codec.DecodeEnvelope(op.Ctx.ResponseXML); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
