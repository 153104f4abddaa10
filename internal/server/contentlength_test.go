package server_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/server"
)

// post sends one SOAP request to url and returns the response with its
// body read.
func post(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "text/xml; charset=utf-8", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// checkSized asserts that a response declared its exact length up front
// instead of going out chunked.
func checkSized(t *testing.T, what string, resp *http.Response, body []byte) {
	t.Helper()
	if resp.ContentLength <= 0 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body; want the exact length, not chunked",
			what, resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestSOAPResponsesCarryContentLength: every SOAP response the server
// package writes declares its length — the dispatcher's successes and
// faults, and the response cache's fills and hits under both of its
// body representations — so the client can size its read. The search
// response is over 8 KB, far past the size at which net/http would
// otherwise switch to chunked encoding.
func TestSOAPResponsesCarryContentLength(t *testing.T) {
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	reg := rep.NewRegistry(codec.Registry(), codec)
	req, err := codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch,
		googleapi.SearchParams("k", strings.Repeat("cache ", 150), 0, 10, false, "", false, ""))
	if err != nil {
		t.Fatal(err)
	}
	unknown, err := codec.EncodeRequest(googleapi.Namespace, "noSuchOperation", nil)
	if err != nil {
		t.Fatal(err)
	}

	handlers := map[string]http.Handler{"dispatcher": disp}
	for _, name := range []string{"raw", "xmltmpl"} {
		store, err := reg.Store(name)
		if err != nil {
			t.Fatal(err)
		}
		handlers["cache "+name] = server.NewResponseCache(disp, server.ResponseCacheConfig{Body: store})
	}
	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(h)
			defer srv.Close()
			client := srv.Client()

			resp, first := post(t, client, srv.URL, req)
			if resp.StatusCode != http.StatusOK || len(first) < 8<<10 {
				t.Fatalf("search: status %d, %d bytes; want 200 and over 8 KB", resp.StatusCode, len(first))
			}
			checkSized(t, "search", resp, first)
			resp, again := post(t, client, srv.URL, req) // a hit, behind a cache
			checkSized(t, "repeated search", resp, again)
			if !bytes.Equal(again, first) {
				t.Error("the repeated search answered different bytes")
			}

			resp, fault := post(t, client, srv.URL, unknown)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("unknown operation: status %d, want 500", resp.StatusCode)
			}
			if _, err := codec.DecodeEnvelope(fault); err != nil {
				t.Fatalf("fault body does not decode: %v", err)
			}
			checkSized(t, "fault", resp, fault)
		})
	}
}
