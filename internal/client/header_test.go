package client_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/transport"
	"repro/internal/typemap"
)

// TestSharedHeaderConcurrentRevalidation: one Call serves plain
// invocations and revalidating ones (a handler adds If-Modified-Since,
// as the cache's revalidation path does) from several goroutines at
// once. Every plain request reaches the server without the validator,
// every revalidating one with it, and the header the Call shares across
// its requests still holds exactly its two SOAP keys afterwards. Run it
// under -race: a merge that wrote into the shared header would race
// with the requests reading it.
func TestSharedHeaderConcurrentRevalidation(t *testing.T) {
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: testNS, Local: "Quote"}, quote{}); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	disp := server.NewDispatcher(codec, testNS)
	disp.Register("getQuote", func(params []soap.Param) (any, error) {
		sym, _ := params[0].Value.(string)
		return &quote{Symbol: sym}, nil
	})
	ims := time.Unix(1_000_000_000, 0).UTC().Format(http.TimeFormat)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		plain := bytes.Contains(body, []byte(">plain-"))
		if got := r.Header.Get("If-Modified-Since"); plain && got != "" || !plain && got != ims {
			t.Errorf("plain %v: If-Modified-Since %q", plain, got)
		}
		if got := r.Header.Get("SOAPAction"); got != `"`+testNS+`#getQuote"` {
			t.Errorf("SOAPAction %q", got)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		disp.ServeHTTP(w, r)
	}))
	defer srv.Close()

	revalidate := client.HandlerFunc(func(ictx *client.Context, next client.Invoker) error {
		if sym, _ := ictx.Params[0].Value.(string); strings.HasPrefix(sym, "ims-") {
			ictx.RequestHeader = make(http.Header, 1)
			ictx.RequestHeader.Set("If-Modified-Since", ims)
		}
		return next(ictx)
	})
	call := client.NewCall(codec, &transport.HTTP{}, srv.URL, testNS, "getQuote", testNS+"#getQuote",
		client.Options{Handlers: []client.Handler{revalidate}})

	const workers, calls = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				kind := "plain"
				if (w+i)%2 == 0 {
					kind = "ims"
				}
				sym := fmt.Sprintf("%s-%d-%d", kind, w, i)
				res, err := call.Invoke(context.Background(), soap.Param{Name: "symbol", Value: sym})
				if err != nil {
					t.Error(err)
					return
				}
				if q, ok := res.(*quote); !ok || q.Symbol != sym {
					t.Errorf("%s: result %#v", sym, res)
				}
			}
		}()
	}
	wg.Wait()

	h := call.SharedHeader()
	if len(h) != 2 || len(h["Content-Type"]) != 1 || len(h["Soapaction"]) != 1 {
		t.Errorf("shared header after the calls: %v, want Content-Type and SOAPAction once each", h)
	}
}
