package repro_test

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/transport"
)

// diffHitCall builds a full middleware stack whose client cache is
// statically pinned to one streaming representation and whose call
// opts into streamed hits, for the DESIGN.md §5i allocation guard.
// The cache records the response's events itself when the
// representation reads them (xmltmpl builds its template from the
// sequence; raw replay needs only the response bytes).
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
