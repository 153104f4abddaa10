package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/googleapi"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/server"
	"repro/internal/soap"
)

// call posts one operation to the endpoint and returns its string
// result.
func call(t *testing.T, codec *soap.Codec, url, op string, params []soap.Param) string {
	t.Helper()
	req, err := codec.EncodeRequest(googleapi.Namespace, op, params)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "text/xml", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", op, resp.StatusCode, body)
	}
	msg, err := codec.DecodeEnvelope(body)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	s, _ := msg.Result().(string)
	return s
}

// TestCacheNeverHoldsItemOperations drives put→get→put→get through the
// -cache endpoint for every accepted body representation: each write must reach
// the store (including a byte-identical repeat of an earlier one) and
// each read must see the latest write, -ttl notwithstanding.
func TestCacheNeverHoldsItemOperations(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"raw", "xmltmpl"} {
		t.Run(name, func(t *testing.T) {
			h, err := newSOAPHandler(false, time.Hour, true, name, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(h)
			defer srv.Close()

			get := func() string { return call(t, codec, srv.URL, googleapi.OpGetItem, googleapi.GetItemParams("k")) }
			put := func(v string) { call(t, codec, srv.URL, googleapi.OpPutItem, googleapi.PutItemParams("k", v)) }

			put("one")
			if got := get(); got != "one" {
				t.Fatalf("get after put(one) = %q", got)
			}
			put("two")
			if got := get(); got != "two" {
				t.Errorf("get after put(two) = %q: a cached doGetItem outlived the write", got)
			}
			put("one") // byte-identical to the first request
			if got := get(); got != "one" {
				t.Errorf("get after repeating put(one) = %q: the repeated write was answered from cache", got)
			}
			if got := call(t, codec, srv.URL, "doListItems", nil); got != "k" {
				t.Errorf("list = %q, want k", got)
			}
		})
	}
}

func TestNewSOAPHandlerRejectsBadFlags(t *testing.T) {
	for name, tc := range map[string]struct {
		fixed, cache bool
		ttl          time.Duration
		rep, want    string
	}{
		"cache with fixed":  {fixed: true, cache: true, rep: "raw", want: "-fixed"},
		"negative ttl":      {ttl: -time.Second, rep: "raw", want: "-ttl"},
		"unknown rep":       {cache: true, rep: "zip", want: "zip"},
		"non-streaming rep": {cache: true, rep: "clone", want: "have raw, xmltmpl"},
	} {
		if _, err := newSOAPHandler(tc.fixed, tc.ttl, tc.cache, tc.rep, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestCacheRepFor pins which names -cache-rep accepts: the registry's
// representations whose hits are byte streams, by short or display
// name. Every other representation, and the selection policies, are
// rejected with an error naming the accepted ones.
func TestCacheRepFor(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	reps := rep.NewRegistry(codec.Registry(), codec)
	for name, want := range map[string]string{
		"raw":                   "Raw response replay",
		"RAW":                   "Raw response replay",
		"xmltmpl":               "XML template (splice)",
		"XML template (splice)": "XML template (splice)",
	} {
		s, err := cacheRepFor(reps, name)
		if err != nil {
			t.Errorf("cacheRepFor(%q): %v", name, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("cacheRepFor(%q) = %q, want %q", name, s.Name(), want)
		}
	}
	for _, name := range []string{"clone", "compact-sax", "xml", "ref", "auto", "adaptive", "zip", ""} {
		_, err := cacheRepFor(reps, name)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) || !strings.Contains(err.Error(), "have raw, xmltmpl") {
			t.Errorf("cacheRepFor(%q): err = %v, want one naming it and the accepted raw, xmltmpl", name, err)
		}
	}
}

// TestCacheByteIdentity: on the real service, for every accepted
// -cache-rep and each of the paper's three operations, a server-side
// hit is byte-identical to the miss and to the uncached dispatcher's
// response, on both surfaces — the HTTP hit (WriteTo) and the Handle
// hit (Bytes).
func TestCacheByteIdentity(t *testing.T) {
	d, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string][]soap.Param{
		googleapi.OpGoogleSearch:       googleapi.SearchParams("k", "byte identity", 0, 10, false, "", false, ""),
		googleapi.OpSpellingSuggestion: googleapi.SpellingParams("k", "worl peace"),
		googleapi.OpGetCachedPage:      googleapi.CachedPageParams("k", "http://example.com/"),
	}
	for _, name := range []string{"raw", "xmltmpl"} {
		for op, params := range ops {
			t.Run(name+"/"+op, func(t *testing.T) {
				req, err := codec.EncodeRequest(googleapi.Namespace, op, params)
				if err != nil {
					t.Fatal(err)
				}
				want, fault, err := d.Handle(req)
				if err != nil || fault {
					t.Fatalf("uncached: fault=%v err=%v", fault, err)
				}
				for surface, serve := range map[string]func(*server.ResponseCache) []byte{
					"http":   func(rc *server.ResponseCache) []byte { return post(t, rc, req) },
					"handle": func(rc *server.ResponseCache) []byte { return handle(t, rc, req) },
				} {
					h, err := newSOAPHandler(false, time.Hour, true, name, nil)
					if err != nil {
						t.Fatal(err)
					}
					rc := h.(*server.ResponseCache)
					miss, hit := serve(rc), serve(rc)
					if hits, misses := rc.Stats(); hits != 1 || misses != 1 {
						t.Fatalf("%s: stats = %d/%d, want one miss then one hit", surface, hits, misses)
					}
					if !bytes.Equal(miss, want) || !bytes.Equal(hit, want) {
						t.Errorf("%s: miss (%d B) and hit (%d B) must equal the uncached response (%d B)\nhit:  %s\nwant: %s",
							surface, len(miss), len(hit), len(want), hit, want)
					}
				}
			})
		}
	}
}

// post serves req through the cache's HTTP surface.
func post(t *testing.T, h http.Handler, req []byte) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(req)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// handle serves req through the cache's Handle surface.
func handle(t *testing.T, rc *server.ResponseCache, req []byte) []byte {
	t.Helper()
	resp, fault, err := rc.Handle(req)
	if err != nil || fault {
		t.Fatalf("fault=%v err=%v", fault, err)
	}
	return resp
}

// TestCacheObservability: with -cache, the server's mux serves the
// response cache's registry at obs.DebugPath, and a repeated request
// shows there as a hit with its lookup stage timed.
func TestCacheObservability(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	mux, err := newMux(false, time.Hour, true, "raw")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for range 2 {
		call(t, codec, srv.URL, googleapi.OpSpellingSuggestion, googleapi.SpellingParams("k", "worl peace"))
	}
	resp, err := http.Get(srv.URL + obs.DebugPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("%s: %v", obs.DebugPath, err)
	}
	if snap.Counters["server.hits"] < 1 {
		t.Errorf("server.hits = %d after a repeated request, want ≥ 1", snap.Counters["server.hits"])
	}
	lookup := false
	for _, st := range snap.Stages {
		lookup = lookup || st.Stage == obs.StageServerLookup
	}
	if !lookup {
		t.Errorf("no %s stage in %+v", obs.StageServerLookup, snap.Stages)
	}
}
