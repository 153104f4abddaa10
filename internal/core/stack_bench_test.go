package core_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/transport"
)

// BenchmarkObsOverhead measures what the observability layer costs on
// the hottest path, a cache hit through the full middleware stack.
// "off" is the default configuration (no registry): stage timing is
// compiled out behind a single bool, so this variant must stay within
// noise (<5%) of the pre-instrumentation baseline. "registry" pays for
// clock reads plus histogram updates per stage.
func BenchmarkObsOverhead(b *testing.B) {
	newCall := func(reg *obs.Registry) (*client.Call, error) {
		disp, codec, err := googleapi.NewDispatcher()
		if err != nil {
			return nil, err
		}
		cache := core.MustNew(core.Config{
			KeyGen:     rep.NewStringKey(),
			Rep:        rep.NewRegistry(codec.Registry(), codec),
			DefaultTTL: time.Hour,
			Obs:        reg,
		})
		return client.NewCall(codec, &transport.InProcess{Handler: disp},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: []client.Handler{cache}, Obs: reg}), nil
	}
	params := googleapi.SearchParams("k", "steady query", 0, 10, false, "", false, "")
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"registry", obs.NewRegistry()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			call, err := newCall(tc.reg)
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
		var nowSec atomic.Int64
		nowSec.Store(time.Now().Unix())
		cache := core.MustNew(core.Config{
			KeyGen:     rep.NewStringKey(),
			Rep:        rep.NewRegistry(codec.Registry(), codec),
			DefaultTTL: time.Minute,
			Revalidate: revalidate,
			Clock:      func() time.Time { return time.Unix(nowSec.Load(), 0) },
		})
		call := client.NewCall(codec, &transport.InProcess{Handler: disp},
			googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
			client.Options{Handlers: []client.Handler{cache}})
		expire := func() { nowSec.Add(120) }
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
