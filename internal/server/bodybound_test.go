package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// stream is a chunked request body of n bytes that exist only as they
// are read.
type stream struct{ n int64 }

func (s *stream) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), s.n)]
	for i := range p {
		p[i] = ' '
	}
	s.n -= int64(len(p))
	return len(p), nil
}

// TestRequestBodyIsBounded: a request body one byte over
// maxRequestBytes is answered 413, whether it streams in chunked to the
// dispatcher or declares its length to the response cache.
func TestRequestBodyIsBounded(t *testing.T) {
	d, _ := newDispatcher(t)
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", &stream{n: maxRequestBytes + 1})
	if r.ContentLength != -1 {
		t.Fatalf("request declares %d bytes, want a chunked body", r.ContentLength)
	}
	d.ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("streamed body: status %d, want 413", w.Code)
	}

	w = httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/", &stream{})
	r.ContentLength = maxRequestBytes + 1
	NewResponseCache(d, ResponseCacheConfig{}).ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared body: status %d, want 413", w.Code)
	}
}
