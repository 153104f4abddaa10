package core

import (
	"context"
	"fmt"
	"net/http"
	"repro/internal/rep"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/googleapi"
	"repro/internal/server"
	"repro/internal/transport"
)

// revalidationFixture wires a caching client to a dispatcher that
// supports HTTP validators, with a controllable clock.
type revalidationFixture struct {
	call    *client.Call
	cache   *Cache
	disp    *server.Dispatcher
	nowSec  *int64
	backend *int // backend invocation count (full responses only)
}

func newRevalidationFixture(t *testing.T, cacheTTL time.Duration, honorServerTTL bool) *revalidationFixture {
	t.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	lastMod := time.Now().Add(-24 * time.Hour).Truncate(time.Second)
	disp.SetValidatorPolicy(lastMod, time.Minute)

	nowSec := new(int64)
	*nowSec = time.Now().Unix()
	clock := func() time.Time { return time.Unix(*nowSec, 0) }

	cache := MustNew(Config{
		KeyGen:         rep.NewStringKey(),
		Rep:            rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:     cacheTTL,
		Revalidate:     true,
		HonorServerTTL: honorServerTTL,
		Clock:          clock,
	})

	backend := new(int)
	countingTransport := transport.Func(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		inner := &transport.InProcess{Handler: disp}
		resp, err := inner.Send(ctx, req)
		if err == nil && !resp.NotModified() {
			*backend++
		}
		return resp, err
	})

	call := client.NewCall(codec, countingTransport, googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpGoogleSearch, "urn:GoogleSearchAction",
		client.Options{Handlers: []client.Handler{cache}})

	return &revalidationFixture{call: call, cache: cache, disp: disp, nowSec: nowSec, backend: backend}
}

func (f *revalidationFixture) invoke(t *testing.T, q string) *client.Context {
	t.Helper()
	ictx, err := f.call.InvokeContext(context.Background(),
		googleapi.SearchParams("k", q, 0, 10, false, "", false, "")...)
	if err != nil {
		t.Fatal(err)
	}
	return ictx
}

func TestRevalidation304RefreshesEntry(t *testing.T) {
	f := newRevalidationFixture(t, time.Minute, false)

	// Miss: full response, entry stored with the Last-Modified header.
	if ictx := f.invoke(t, "q"); ictx.CacheHit {
		t.Fatal("first call hit")
	}
	if *f.backend != 1 {
		t.Fatalf("backend = %d", *f.backend)
	}

	// Fresh hit: no traffic at all.
	if ictx := f.invoke(t, "q"); !ictx.CacheHit {
		t.Fatal("second call missed")
	}
	if *f.backend != 1 {
		t.Fatalf("backend = %d after fresh hit", *f.backend)
	}

	// Let the entry expire; the next call goes conditional and the
	// server answers 304 (it has not been modified since lastMod).
	*f.nowSec += 120
	ictx := f.invoke(t, "q")
	if !ictx.CacheHit {
		t.Fatal("revalidated call should report a hit")
	}
	if !ictx.NotModified {
		t.Fatal("expected a 304 answer")
	}
	if *f.backend != 1 {
		t.Fatalf("backend recomputed a full response: %d", *f.backend)
	}
	if got := ictx.Result.(*googleapi.GoogleSearchResult); got.SearchQuery != "q" {
		t.Errorf("revalidated result = %+v", got)
	}
	if f.cache.Stats().Revalidations != 1 {
		t.Errorf("revalidations = %d", f.cache.Stats().Revalidations)
	}

	// The refreshed entry is fresh again: plain hit, no traffic.
	if ictx := f.invoke(t, "q"); !ictx.CacheHit || ictx.NotModified {
		t.Error("entry not refreshed after 304")
	}
	if *f.backend != 1 {
		t.Errorf("backend = %d after refresh", *f.backend)
	}
}

func TestRevalidationModifiedServerSendsFull(t *testing.T) {
	f := newRevalidationFixture(t, time.Minute, false)
	f.invoke(t, "q")

	// The resource changes on the server: validator moves forward.
	f.disp.SetValidatorPolicy(time.Now().Add(time.Hour).Truncate(time.Second), time.Minute)

	*f.nowSec += 120
	ictx := f.invoke(t, "q")
	if ictx.CacheHit {
		t.Error("modified resource served from stale cache")
	}
	if ictx.NotModified {
		t.Error("expected a full response for a modified resource")
	}
	if *f.backend != 2 {
		t.Errorf("backend = %d, want 2 full responses", *f.backend)
	}

	// And the new response replaced the entry: next call is a hit.
	if ictx := f.invoke(t, "q"); !ictx.CacheHit {
		t.Error("refilled entry not hit")
	}
}

func TestRevalidationDisabledDropsExpired(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	disp.SetValidatorPolicy(time.Now().Add(-time.Hour), time.Minute)
	nowSec := new(int64)
	*nowSec = time.Now().Unix()
	cache := MustNew(Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Minute,
		Clock:      func() time.Time { return time.Unix(*nowSec, 0) },
	})
	call := client.NewCall(codec, &transport.InProcess{Handler: disp},
		googleapi.Endpoint, googleapi.Namespace, googleapi.OpGoogleSearch, "",
		client.Options{Handlers: []client.Handler{cache}})

	params := googleapi.SearchParams("k", "q", 0, 10, false, "", false, "")
	if _, err := call.Invoke(context.Background(), params...); err != nil {
		t.Fatal(err)
	}
	*nowSec += 120
	ictx, err := call.InvokeContext(context.Background(), params...)
	if err != nil {
		t.Fatal(err)
	}
	if ictx.CacheHit || ictx.NotModified {
		t.Error("revalidation happened while disabled")
	}
	if cache.Stats().Entries != 1 {
		t.Errorf("entries = %d", cache.Stats().Entries)
	}
}

func TestHonorServerTTL(t *testing.T) {
	// Server says max-age=60; cache default says a week. With
	// HonorServerTTL the server wins.
	f := newRevalidationFixture(t, 7*24*time.Hour, true)
	f.invoke(t, "q")

	*f.nowSec += 90 // past the server's 60s, well within the default
	ictx := f.invoke(t, "q")
	if !ictx.NotModified {
		t.Error("entry should have expired per server max-age and revalidated")
	}
	if f.cache.Stats().Revalidations != 1 {
		t.Errorf("revalidations = %d", f.cache.Stats().Revalidations)
	}
}

func TestRevalidationDistinctKeysIndependent(t *testing.T) {
	f := newRevalidationFixture(t, time.Minute, false)
	f.invoke(t, "a")
	f.invoke(t, "b")
	*f.nowSec += 120
	// Only "a" is revalidated; "b" stays stale until asked for.
	ictx := f.invoke(t, "a")
	if !ictx.NotModified {
		t.Error("a not revalidated")
	}
	if f.cache.Stats().Revalidations != 1 {
		t.Errorf("revalidations = %d", f.cache.Stats().Revalidations)
	}
}

// TestConditionalRequestHeaderFormat pins the exact header the cache
// sends, since the server parses it with http.ParseTime.
func TestConditionalRequestHeaderFormat(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	lastMod := time.Date(2004, 3, 1, 12, 0, 0, 0, time.UTC)
	disp.SetValidatorPolicy(lastMod, time.Minute)

	nowSec := new(int64)
	*nowSec = time.Now().Unix()
	cache := MustNew(Config{
		KeyGen:     rep.NewStringKey(),
		Rep:        rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL: time.Minute,
		Revalidate: true,
		Clock:      func() time.Time { return time.Unix(*nowSec, 0) },
	})

	var seen http.Header
	tr := transport.Func(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		if req.Header != nil {
			seen = req.Header.Clone()
		} else {
			seen = nil
		}
		return (&transport.InProcess{Handler: disp}).Send(ctx, req)
	})
	call := client.NewCall(codec, tr, googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpGoogleSearch, "", client.Options{Handlers: []client.Handler{cache}})

	params := googleapi.SearchParams("k", "q", 0, 10, false, "", false, "")
	if _, err := call.Invoke(context.Background(), params...); err != nil {
		t.Fatal(err)
	}
	if seen.Get("If-Modified-Since") != "" {
		t.Error("conditional header sent on first request")
	}

	*nowSec += 120
	if _, err := call.Invoke(context.Background(), params...); err != nil {
		t.Fatal(err)
	}
	ims := seen.Get("If-Modified-Since")
	if ims != lastMod.Format(http.TimeFormat) {
		t.Errorf("If-Modified-Since = %q, want %q", ims, lastMod.Format(http.TimeFormat))
	}
	if _, err := http.ParseTime(ims); err != nil {
		t.Errorf("header not parseable: %v", err)
	}
}

// TestRevalidation304WithoutLifetimeHeaders covers servers that answer
// 304 without Cache-Control: the entry must be extended by its original
// lifetime, not pinned forever.
func TestRevalidation304WithoutLifetimeHeaders(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	disp.SetValidatorPolicy(time.Now().Add(-24*time.Hour), time.Minute)

	nowSec := new(int64)
	*nowSec = time.Now().Unix()
	cache := MustNew(Config{
		KeyGen:         rep.NewStringKey(),
		Rep:            rep.NewRegistry(codec.Registry(), codec),
		DefaultTTL:     time.Minute,
		Revalidate:     true,
		HonorServerTTL: true,
		Clock:          func() time.Time { return time.Unix(*nowSec, 0) },
	})

	// Strip lifetime headers from 304 answers, as a minimal server
	// might.
	stripping := transport.Func(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		resp, err := (&transport.InProcess{Handler: disp}).Send(ctx, req)
		if err == nil && resp.NotModified() {
			resp.Header.Del("Cache-Control")
			resp.Header.Del("Last-Modified")
		}
		return resp, err
	})
	call := client.NewCall(codec, stripping, googleapi.Endpoint, googleapi.Namespace,
		googleapi.OpGoogleSearch, "", client.Options{Handlers: []client.Handler{cache}})
	params := googleapi.SearchParams("k", "q", 0, 10, false, "", false, "")

	if _, err := call.Invoke(context.Background(), params...); err != nil {
		t.Fatal(err)
	}
	*nowSec += 120
	ictx, err := call.InvokeContext(context.Background(), params...)
	if err != nil {
		t.Fatal(err)
	}
	if !ictx.NotModified {
		t.Fatal("expected a 304 refresh")
	}

	// The refreshed entry must expire again: two minutes later another
	// conditional request goes out instead of a bare hit.
	*nowSec += 120
	ictx2, err := call.InvokeContext(context.Background(), params...)
	if err != nil {
		t.Fatal(err)
	}
	if !ictx2.NotModified {
		t.Error("entry pinned forever after header-less 304")
	}
	if cache.Stats().Revalidations != 2 {
		t.Errorf("revalidations = %d, want 2", cache.Stats().Revalidations)
	}
}

// TestRevalidationUnderConcurrency hammers the stale-refresh path.
func TestRevalidationUnderConcurrency(t *testing.T) {
	f := newRevalidationFixture(t, time.Minute, false)
	f.invoke(t, "q")
	*f.nowSec += 120

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 50; i++ {
				_, err = f.call.Invoke(context.Background(),
					googleapi.SearchParams("k", "q", 0, 10, false, "", false, "")...)
				if err != nil {
					err = fmt.Errorf("iter %d: %w", i, err)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if f.cache.Stats().Revalidations == 0 {
		t.Error("no revalidations recorded")
	}
}
