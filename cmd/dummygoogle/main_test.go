package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/googleapi"
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
// -cache endpoint for every body representation: each write must reach
// the store (including a byte-identical repeat of an earlier one) and
// each read must see the latest write, -ttl notwithstanding.
func TestCacheNeverHoldsItemOperations(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []string{"raw", "compact-sax", "xmltmpl"} {
		t.Run(rep, func(t *testing.T) {
			h, err := newSOAPHandler(false, time.Hour, true, rep)
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
			if got := call(t, codec, srv.URL, googleapi.OpListItems, nil); got != "k" {
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
		"cache with fixed": {fixed: true, cache: true, rep: "raw", want: "-fixed"},
		"negative ttl":     {ttl: -time.Second, rep: "raw", want: "-ttl"},
		"unknown rep":      {cache: true, rep: "zip", want: "zip"},
	} {
		if _, err := newSOAPHandler(tc.fixed, tc.ttl, tc.cache, tc.rep); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestBodyStoreFor pins which representation every -cache-rep spelling
// resolves to; "" means nil, the server cache's own raw-bytes default.
func TestBodyStoreFor(t *testing.T) {
	for name, want := range map[string]string{
		"":            "",
		"raw":         "",
		"RAW":         "",
		"compact-sax": "SAX events (compact)",
		"compactsax":  "SAX events (compact)",
		"compact":     "SAX events (compact)",
		"xmltmpl":     "XML template (splice)",
		"template":    "XML template (splice)",
		"tmpl":        "XML template (splice)",
	} {
		s, err := bodyStoreFor(name)
		if err != nil {
			t.Errorf("bodyStoreFor(%q): %v", name, err)
			continue
		}
		got := ""
		if s != nil {
			got = s.Name()
		}
		if got != want {
			t.Errorf("bodyStoreFor(%q) = %q, want %q", name, got, want)
		}
	}
	if _, err := bodyStoreFor("zip"); err == nil || !strings.Contains(err.Error(), "zip") {
		t.Errorf("bodyStoreFor(zip): err = %v, want one naming it", err)
	}
}
