package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/soap"
	"repro/internal/typemap"
)

// TestPooledBodyNotRetained: request bodies are read into pooled
// buffers that the next request overwrites, so nothing decoded from one
// may point into it. A handler keeps every string parameter of 1 000
// distinct requests, sent one after another over HTTP, and finds them
// all unchanged at the end: behind the Dispatcher and behind the
// ResponseCache, for requests of one shape (learnt, decoded by the
// memo) and of a new shape each (first sightings, decoded in full).
func TestPooledBodyNotRetained(t *testing.T) {
	codec := soap.NewCodec(typemap.NewRegistry())
	for _, cached := range []bool{false, true} {
		for _, learnt := range []bool{false, true} {
			t.Run(fmt.Sprintf("cached=%v/learnt=%v", cached, learnt), func(t *testing.T) {
				d := NewDispatcher(codec, ns)
				var mu sync.Mutex
				var kept []string
				d.Register("keep", func(params []soap.Param) (any, error) {
					mu.Lock()
					defer mu.Unlock()
					for _, p := range params {
						s, ok := p.Value.(string)
						if !ok {
							return nil, fmt.Errorf("parameter %s is a %T", p.Name, p.Value)
						}
						kept = append(kept, s)
					}
					return "kept", nil
				})
				var h http.Handler = d
				if cached {
					h = NewResponseCache(d, ResponseCacheConfig{})
				}
				srv := httptest.NewServer(h)
				defer srv.Close()

				const requests = 1000
				var want []string
				for i := 0; i < requests; i++ {
					first := "a"
					if !learnt {
						first = fmt.Sprintf("p%d", i) // a shape never seen before
					}
					params := []soap.Param{
						{Name: first, Value: fmt.Sprintf("%04d-%s", i, strings.Repeat(string(rune('a'+i%26)), 40))},
						{Name: "b", Value: fmt.Sprintf("%s-%04d", strings.Repeat(string(rune('Z'-i%26)), 40), i)},
					}
					req, err := codec.EncodeRequest(ns, "keep", params)
					if err != nil {
						t.Fatal(err)
					}
					if status, body := postSOAP(t, srv.URL, req); status != http.StatusOK || !bytes.Contains(body, []byte("kept")) {
						t.Fatalf("request %d: status %d\n%s", i, status, body)
					}
					want = append(want, params[0].Value.(string), params[1].Value.(string))
				}

				mu.Lock()
				defer mu.Unlock()
				if len(kept) != len(want) {
					t.Fatalf("kept %d parameters, want %d", len(kept), len(want))
				}
				changed := 0
				for i := range want {
					if kept[i] != want[i] {
						if changed++; changed <= 3 {
							t.Errorf("parameter %d reads %q, was %q", i, kept[i], want[i])
						}
					}
				}
				if changed > 3 {
					t.Errorf("%d parameters changed in all", changed)
				}
				wantShapes := 0
				if learnt {
					wantShapes = 1
				}
				if shapes := d.memo.Shapes(); shapes != wantShapes {
					t.Errorf("memo learnt %d shapes, want %d", shapes, wantShapes)
				}
			})
		}
	}
}

// discardWriter is a ResponseWriter that keeps only its header, so a
// handler's allocations can be counted without the writer's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// replay returns a function that serves body through h once per call.
// One request and one writer serve every call: the body is rewound and
// the response header cleared each time, so a call allocates only what
// h does.
func replay(h http.Handler, body []byte) func() {
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/", rd)
	w := &discardWriter{h: make(http.Header)}
	return func() {
		rd.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, r)
	}
}
