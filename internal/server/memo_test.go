package server_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/server"
	"repro/internal/soap"
)

// searchRequest encodes a doGoogleSearch request for q as the client
// sends it.
func searchRequest(tb testing.TB, codec *soap.Codec, q string, start int) []byte {
	tb.Helper()
	req, err := codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch,
		googleapi.SearchParams("key", q, start, 10, false, "", false, ""))
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// searchDispatcher returns a dispatcher on codec whose doGoogleSearch
// handler returns one precomputed result, so what it costs is the
// dispatcher's own work: the request decode and the response encode.
func searchDispatcher(codec *soap.Codec) *server.Dispatcher {
	result := googleapi.Search("fixed", 0, 10)
	d := server.NewDispatcher(codec, googleapi.Namespace)
	d.Register(googleapi.OpGoogleSearch, func([]soap.Param) (any, error) { return result, nil })
	return d
}

func handle(tb testing.TB, d *server.Dispatcher, req []byte) []byte {
	tb.Helper()
	resp, _, err := d.Handle(req)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// TestDispatchAllocs: a search request whose shape the dispatcher has
// learnt is handled with at least 20 fewer allocations than the same
// request seen first by a fresh dispatcher, which parses it in full.
// Served over ServeHTTP it costs at most one allocation more than
// through Handle: the Content-Length value and its slice take the place
// of Handle's copy of the response, and the request body is read into a
// pooled buffer, not one of its own.
func TestDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties the parser and encoder pools at random")
	}
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	req := searchRequest(t, codec, "measured query", 0)
	learnt := searchDispatcher(codec)
	for i := 0; i < 2; i++ {
		handle(t, learnt, req)
	}
	if n := learnt.MemoShapes(); n != 1 {
		t.Fatalf("dispatcher learnt %d shapes, want 1", n)
	}
	fresh := make([]*server.Dispatcher, mallocRuns)
	for i := range fresh {
		fresh[i] = searchDispatcher(codec)
	}
	// A collection empties the parser and encoder pools; keep it out of
	// the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	full := handleMallocs(t, req, func(i int) *server.Dispatcher { return fresh[i] })
	memo := handleMallocs(t, req, func(int) *server.Dispatcher { return learnt })
	if full-memo < 20 {
		t.Errorf("a learnt search request costs %.1f allocations, a first sighting %.1f; want at least 20 fewer", memo, full)
	}
	serve := server.Replay(learnt, req)
	for i := 0; i < 3; i++ {
		serve() // the first calls fill the pools
	}
	if served := meanMallocs(func(int) { serve() }); served > memo+1 {
		t.Errorf("a learnt search request costs %.1f allocations over ServeHTTP, %.1f through Handle; want at most one more", served, memo)
	}
}

// mallocRuns is how many requests meanMallocs averages over.
const mallocRuns = 50

// handleMallocs returns the mean allocations of handling req through
// d(i), for i in [0, mallocRuns).
func handleMallocs(t *testing.T, req []byte, d func(i int) *server.Dispatcher) float64 {
	t.Helper()
	return meanMallocs(func(i int) { handle(t, d(i), req) })
}

// meanMallocs returns the mean allocations of f(i), for i in
// [0, mallocRuns).
func meanMallocs(f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < mallocRuns; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / mallocRuns
}

// TestDispatcherMemoIgnoresUnknownOperations: 16 request shapes of
// operations the dispatcher does not serve, each sent twice, take no
// memo slot, so a search request sent three times after them is decoded
// from its learnt shape, at the allocations of a dispatcher that never
// saw the strays.
func TestDispatcherMemoIgnoresUnknownOperations(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	flooded := searchDispatcher(codec)
	for i := 0; i < 16; i++ {
		stray, err := codec.EncodeRequest(googleapi.Namespace, fmt.Sprintf("unknown%d", i),
			[]soap.Param{{Name: fmt.Sprintf("p%d", i), Value: "v"}})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			handle(t, flooded, stray)
		}
	}
	req := searchRequest(t, codec, "after the strays", 0)
	learnt := searchDispatcher(codec)
	for i := 0; i < 3; i++ {
		handle(t, flooded, req)
		handle(t, learnt, req)
	}
	if n := flooded.MemoShapes(); n != 1 {
		t.Errorf("memo holds %d shapes, want only the search shape", n)
	}
	if raceEnabled {
		return // the race detector empties the parser and encoder pools at random
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := handleMallocs(t, req, func(int) *server.Dispatcher { return flooded })
	want := handleMallocs(t, req, func(int) *server.Dispatcher { return learnt })
	if got > want+2 {
		t.Errorf("a search request after the strays costs %.1f allocations, a learnt one %.1f", got, want)
	}
}

// TestDispatcherMemoIsBounded: 100 distinct request shapes of served
// operations, each seen twice, fill the memo to its bound and no
// further, and a search request after them is answered with the same
// bytes as by a dispatcher that never saw them.
func TestDispatcherMemoIsBounded(t *testing.T) {
	d, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		op := fmt.Sprintf("op%d", i)
		d.Register(op, func([]soap.Param) (any, error) { return "ok", nil })
		req, err := codec.EncodeRequest(googleapi.Namespace, op,
			[]soap.Param{{Name: fmt.Sprintf("p%d", i), Value: "v"}})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			handle(t, d, req)
		}
	}
	if n := d.MemoShapes(); n != 16 {
		t.Fatalf("memo holds %d shapes, want its bound of 16", n)
	}
	fresh, _, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	req := searchRequest(t, codec, "after the flood", 3)
	want := handle(t, fresh, req)
	for i := 0; i < 3; i++ {
		if got := handle(t, d, req); !bytes.Equal(got, want) {
			t.Fatalf("search %d after a full memo answered\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestDispatcherConcurrentServeHTTP runs concurrent ServeHTTP calls
// while the memo learns the request shapes of three operations; every
// response equals a memo-less dispatcher's answer (run under -race).
func TestDispatcherConcurrentServeHTTP(t *testing.T) {
	d, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	var reqs, wants [][]byte
	for i := 0; i < 8; i++ {
		q := fmt.Sprintf("query %d", i)
		for _, r := range []struct {
			op     string
			params []soap.Param
		}{
			{googleapi.OpGoogleSearch, googleapi.SearchParams("k", q, i, 10, i%2 == 0, "", false, "")},
			{googleapi.OpSpellingSuggestion, googleapi.SpellingParams("k", q)},
			{googleapi.OpGetCachedPage, googleapi.CachedPageParams("k", "http://example.com/"+q)},
		} {
			req, err := codec.EncodeRequest(googleapi.Namespace, r.op, r.params)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, req)
			wants = append(wants, handle(t, ref, req))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range reqs {
				k := (i + g*5) % len(reqs)
				w := httptest.NewRecorder()
				d.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(reqs[k])))
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), wants[k]) {
					errs <- fmt.Errorf("worker %d, request %d: status %d, body\n%s", g, k, w.Code, w.Body.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := d.MemoShapes(); n != 3 {
		t.Errorf("memo learnt %d shapes, want 3", n)
	}
}

// BenchmarkDispatchSearch handles one doGoogleSearch request with a
// fixed result: "full" through a fresh dispatcher each time, which
// parses the request in full, and "memo" through one that has learnt
// the request's shape.
func BenchmarkDispatchSearch(b *testing.B) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		b.Fatal(err)
	}
	req := searchRequest(b, codec, "benchmark query", 0)
	b.Run("full", func(b *testing.B) {
		fresh := make([]*server.Dispatcher, b.N)
		for i := range fresh {
			fresh[i] = searchDispatcher(codec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			handle(b, fresh[i], req)
		}
	})
	b.Run("memo", func(b *testing.B) {
		d := searchDispatcher(codec)
		for i := 0; i < 2; i++ {
			handle(b, d, req)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			handle(b, d, req)
		}
	})
}
