package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// newCachedFixture wires a ResponseCache over an echo dispatcher whose
// handler invocations are counted.
func newCachedFixture(t *testing.T, cfg ResponseCacheConfig) (*ResponseCache, *soap.Codec, *atomic.Int64) {
	t.Helper()
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: ns, Local: "Pair"}, pair{}); err != nil {
		t.Fatal(err)
	}
	codec := soap.NewCodec(reg)
	d := NewDispatcher(codec, ns)
	calls := new(atomic.Int64)
	d.Register("search", func(params []soap.Param) (any, error) {
		calls.Add(1)
		q, _ := params[0].Value.(string)
		return &pair{Key: "result", Value: q}, nil
	})
	d.Register("update", func(params []soap.Param) (any, error) {
		calls.Add(1)
		return "done", nil
	})
	d.Register("boom", func([]soap.Param) (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("handler failure")
	})
	return NewResponseCache(d, cfg), codec, calls
}

func TestResponseCacheHit(t *testing.T) {
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})

	resp1, fault, err := c.Handle(req)
	if err != nil || fault {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	resp2, fault, err := c.Handle(req)
	if err != nil || fault {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	if calls.Load() != 1 {
		t.Errorf("handler calls = %d, want 1", calls.Load())
	}
	if !bytes.Equal(resp1, resp2) {
		t.Error("cached response differs")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}

	// The cached bytes still decode correctly.
	msg, err := codec.DecodeEnvelope(resp2)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Result().(*pair).Value != "x" {
		t.Errorf("result = %+v", msg.Result())
	}
}

func TestResponseCacheDistinctRequestsMiss(t *testing.T) {
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{})
	for _, q := range []string{"a", "b", "a"} {
		req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: q}})
		if _, _, err := c.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("handler calls = %d, want 2", calls.Load())
	}
}

func TestResponseCachePolicyFilter(t *testing.T) {
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{
		Cacheable: func(op string) bool { return op == "search" },
	})
	req, _ := codec.EncodeRequest(ns, "update", []soap.Param{{Name: "v", Value: "x"}})
	for i := 0; i < 3; i++ {
		if _, _, err := c.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("uncacheable op served from cache: calls = %d", calls.Load())
	}
	if c.Len() != 0 {
		t.Errorf("entries = %d", c.Len())
	}
}

func TestResponseCacheFaultNotCached(t *testing.T) {
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{})
	req, _ := codec.EncodeRequest(ns, "boom", nil)
	for i := 0; i < 2; i++ {
		_, fault, err := c.Handle(req)
		if err != nil || !fault {
			t.Fatalf("err=%v fault=%v", err, fault)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("fault cached: calls = %d", calls.Load())
	}
}

func TestResponseCacheTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{
		TTL:   time.Minute,
		Clock: func() time.Time { return now },
	})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
	if _, _, err := c.Handle(req); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, _, err := c.Handle(req); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("expired entry served: calls = %d", calls.Load())
	}
}

// TestResponseCacheLRUBound: MaxEntries is a bound. The engine slices
// it across shards (two one-entry shards here), so how full the cache
// gets depends on how the five keys hash — anywhere from 1 to 2.
func TestResponseCacheLRUBound(t *testing.T) {
	c, codec, _ := newCachedFixture(t, ResponseCacheConfig{MaxEntries: 2})
	for i := 0; i < 5; i++ {
		req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: fmt.Sprintf("q%d", i)}})
		if _, _, err := c.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n < 1 || n > 2 {
		t.Errorf("entries = %d, want within [1, 2]", n)
	}
}

// TestResponseCacheKeyIsDigest: the table is keyed by a digest of the
// request, not the request. Two requests differing only in their last
// byte are different keys, and filling the cache with large requests
// whose responses are small retains none of the request bytes.
func TestResponseCacheKeyIsDigest(t *testing.T) {
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
	// Trailing whitespace after the envelope is legal XML and changes
	// only the last byte.
	a := append(append([]byte(nil), req...), ' ')
	b := append(append([]byte(nil), req...), '\n')
	for _, r := range [][]byte{a, b, a, b} {
		if _, fault, err := c.Handle(r); err != nil || fault {
			t.Fatalf("err=%v fault=%v", err, fault)
		}
	}
	if calls.Load() != 2 || c.Len() != 2 {
		t.Errorf("handler calls = %d, entries = %d; want 2 and 2 (a and b miss each other, then each hits)", calls.Load(), c.Len())
	}

	const n, pad = 64, 256 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < n; i++ {
		r := append(append([]byte(nil), req...), bytes.Repeat([]byte{' '}, pad+i)...)
		if _, fault, err := c.Handle(r); err != nil || fault {
			t.Fatalf("err=%v fault=%v", err, fault)
		}
	}
	if c.Len() != n+2 {
		t.Fatalf("entries = %d, want %d", c.Len(), n+2)
	}
	if grew := int64(heap()) - int64(before); grew > n*pad/4 {
		t.Errorf("heap grew %d B caching %d requests of %d B each: request bytes are being retained", grew, n, pad)
	}
	runtime.KeepAlive(c) // the measurement above is of a live cache
}

// TestResponseCacheHitAllocs: sniffing the operation out of a request
// allocates nothing, and a Handle hit adds nothing to it — in
// particular no copy of the request to key the table with. The sniff
// draws its scanner from a pool, which the race detector empties at
// random, so each count is the least of many single runs: a run that
// met an empty pool pays for a scanner, but not every run does.
func TestResponseCacheHitAllocs(t *testing.T) {
	c, codec, _ := newCachedFixture(t, ResponseCacheConfig{})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
	if _, _, err := c.Handle(req); err != nil {
		t.Fatal(err)
	}
	least := func(f func()) float64 {
		m := testing.AllocsPerRun(1, f)
		for i := 0; i < 50 && m > 0; i++ {
			m = min(m, testing.AllocsPerRun(1, f))
		}
		return m
	}
	if sniff := least(func() { _, _ = soap.SniffOperation(req) }); sniff != 0 {
		t.Errorf("SniffOperation = %v allocs, want 0", sniff)
	}
	if hit := least(func() { _, _, _ = c.Handle(req) }); hit != 0 {
		t.Errorf("Handle hit = %v allocs, want 0: the cache layer must add none to the sniff", hit)
	}
}

// TestRawBodyRoundTrip covers the default representation's contract as
// the server cache uses it: the buffer a miss returns is not retained
// (scribbling on it leaves the hit intact), and a foreign payload is
// refused rather than replayed.
func TestRawBodyRoundTrip(t *testing.T) {
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
	miss, _, err := c.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	want := string(miss)
	for i := range miss {
		miss[i] = '!'
	}
	if hit, _, err := c.Handle(req); err != nil || string(hit) != want || calls.Load() != 1 {
		t.Errorf("hit = %q, %v after %d handler calls; want the unscribbled miss from 1 call", hit, err, calls.Load())
	}
	if _, err := c.streamed(42); err == nil {
		t.Error("a foreign payload replayed")
	}
}

func TestResponseCacheMalformedRequestPassesThrough(t *testing.T) {
	c, _, _ := newCachedFixture(t, ResponseCacheConfig{})
	resp, fault, err := c.Handle([]byte("garbage"))
	if err != nil || !fault {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	if len(resp) == 0 {
		t.Error("no fault envelope")
	}
	if c.Len() != 0 {
		t.Error("garbage cached")
	}
}

func TestResponseCacheConcurrent(t *testing.T) {
	c, codec, _ := newCachedFixture(t, ResponseCacheConfig{MaxEntries: 8})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 100; i++ {
				req, _ := codec.EncodeRequest(ns, "search",
					[]soap.Param{{Name: "q", Value: fmt.Sprintf("q%d", (g+i)%12)}})
				if _, _, e := c.Handle(req); e != nil {
					err = e
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSniffOperation(t *testing.T) {
	_, codec, _ := newCachedFixture(t, ResponseCacheConfig{})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
	op, err := soap.SniffOperation(req)
	if err != nil || op != "search" {
		t.Errorf("op = %q, err = %v", op, err)
	}

	fault, _ := codec.EncodeFault(&soap.Fault{Code: "c", String: "s"})
	op, err = soap.SniffOperation(fault)
	if err != nil || op != "" {
		t.Errorf("fault sniff = %q, %v", op, err)
	}

	empty := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body></e:Body></e:Envelope>`
	op, err = soap.SniffOperation([]byte(empty))
	if err != nil || op != "" {
		t.Errorf("empty body sniff = %q, %v", op, err)
	}

	selfClosed := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/></e:Envelope>`
	op, err = soap.SniffOperation([]byte(selfClosed))
	if err != nil || op != "" {
		t.Errorf("self-closed body sniff = %q, %v", op, err)
	}

	withHeader := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<e:Header><tx xmlns="urn:h">1</tx></e:Header>` +
		`<e:Body><op xmlns="urn:x"><a>1</a></op></e:Body></e:Envelope>`
	op, err = soap.SniffOperation([]byte(withHeader))
	if err != nil || op != "op" {
		t.Errorf("header sniff = %q, %v", op, err)
	}

	if _, err := soap.SniffOperation([]byte(`<notsoap/>`)); err == nil {
		t.Error("non-envelope accepted")
	}
	if op, err := soap.SniffOperation([]byte(`not xml`)); err == nil && op != "" {
		t.Error("garbage accepted")
	}
}

// failingBody declines every store, so nothing is ever cached.
type failingBody struct{ rep.RawStreamStore }

func (failingBody) Store(*client.Context) (any, int, error) { return nil, 0, fmt.Errorf("nope") }

func TestResponseCacheStoreFailureSkipsCaching(t *testing.T) {
	// A body the representation cannot hold is served but not cached;
	// every request reaches the handler.
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{Body: failingBody{}})
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
	for i := 0; i < 2; i++ {
		if _, _, err := c.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("handler calls = %d, want 2 (nothing cacheable)", calls.Load())
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries, want 0", c.Len())
	}
}

// postSOAP posts one SOAP request to the cache's HTTP surface.
func postSOAP(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/xml", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestResponseCacheStreamingHTTPHit: an HTTP hit replays the cached
// bytes straight into the response writer (rep.Streamed.WriteTo). The
// streamed hit must be byte-identical to the miss response and attributed to the
// server-stream stage.
func TestResponseCacheStreamingHTTPHit(t *testing.T) {
	obsReg := obs.NewRegistry()
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{Obs: obsReg})
	srv := httptest.NewServer(c)
	defer srv.Close()

	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "streamed"}})
	s1, b1 := postSOAP(t, srv.URL, req)
	s2, b2 := postSOAP(t, srv.URL, req)
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("status = %d, %d", s1, s2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("streamed hit diverges from the miss response")
	}
	if calls.Load() != 1 {
		t.Errorf("handler calls = %d, want 1", calls.Load())
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	h := obsReg.StageHistogram(obs.StageServerStream, "")
	if h == nil || h.Snapshot().Count != 1 {
		t.Error("hit not attributed to the server-stream stage")
	}
	msg, err := codec.DecodeEnvelope(b2)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Result().(*pair).Value != "streamed" {
		t.Errorf("result = %+v", msg.Result())
	}
}

// TestResponseCacheTemplateBodyHTTP: with the xmltmpl resident
// representation, entries of the same response shape share one spliced
// skeleton and HTTP hits stream the spliced document.
func TestResponseCacheTemplateBodyHTTP(t *testing.T) {
	ts := rep.NewTemplateStore()
	c, codec, calls := newCachedFixture(t, ResponseCacheConfig{Body: ts})
	srv := httptest.NewServer(c)
	defer srv.Close()

	for _, q := range []string{"first", "second"} {
		req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: q}})
		_, miss := postSOAP(t, srv.URL, req)
		_, hit := postSOAP(t, srv.URL, req)
		if !bytes.Equal(miss, hit) {
			t.Errorf("q=%s: spliced hit diverges from the miss response", q)
		}
		msg, err := codec.DecodeEnvelope(hit)
		if err != nil {
			t.Fatalf("q=%s: spliced hit does not decode: %v", q, err)
		}
		if msg.Result().(*pair).Value != q {
			t.Errorf("q=%s: result = %+v", q, msg.Result())
		}
	}
	if calls.Load() != 2 {
		t.Errorf("handler calls = %d, want 2", calls.Load())
	}
	if s := ts.Stats(); s.Skeletons != 1 {
		t.Errorf("skeletons = %d, want 1 shared across both entries", s.Skeletons)
	}
}

// TestResponseCacheTemplateBodyReplaysThirdPartyBytes: an xmltmpl body
// that this repository's encoder did not write (single quotes,
// references, an empty-element tag, a CR, an XML declaration) is served
// byte for byte on both surfaces, and a body the store cannot split (a
// comment) is not cached at all rather than cached rewritten.
func TestResponseCacheTemplateBodyReplaysThirdPartyBytes(t *testing.T) {
	c, codec, _ := newCachedFixture(t, ResponseCacheConfig{Body: rep.NewTemplateStore()})
	srv := httptest.NewServer(c)
	defer srv.Close()
	req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "third party"}})
	key := c.eng.Digest(req)
	body := []byte("<?xml version='1.0' encoding='UTF-8'?>\r\n" +
		`<soapenv:Envelope xmlns:soapenv='http://schemas.xmlsoap.org/soap/envelope/'><soapenv:Body>` +
		`<ns1:searchResponse xmlns:ns1='` + ns + `'><return><key>it&apos;s &#65;</key>` + "<value>a\r\nb</value><b/></return>" +
		"</ns1:searchResponse></soapenv:Body></soapenv:Envelope>\n")

	// Fill the entry as fill does with a handler's body.
	payload, size, err := c.body.Store(&client.Context{ResponseXML: body, AcceptStream: true})
	if err != nil {
		t.Fatal(err)
	}
	c.eng.Insert(key, engine.Item[any]{Value: payload, Size: size})
	if _, hit := postSOAP(t, srv.URL, req); !bytes.Equal(hit, body) {
		t.Errorf("HTTP hit diverges from the stored body\n got: %q\nwant: %q", hit, body)
	}
	if hit, _, err := c.Handle(req); err != nil || !bytes.Equal(hit, body) {
		t.Errorf("Handle hit diverges from the stored body (err %v)\n got: %q\nwant: %q", err, hit, body)
	}
	if hits, _ := c.Stats(); hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}

	commented := bytes.Replace(body, []byte("<b/>"), []byte("<!-- note --><b/>"), 1)
	if _, _, err := c.body.Store(&client.Context{ResponseXML: commented, AcceptStream: true}); !errors.Is(err, rep.ErrNotApplicable) {
		t.Errorf("Store of a commented body: err = %v, want ErrNotApplicable", err)
	}
}

// brokenStreamer stores like the raw representation but cannot replay:
// Load fails, or (notBytes) loads something that is not a byte stream.
type brokenStreamer struct {
	rep.RawStreamStore
	notBytes bool
}

func (b brokenStreamer) Load(any) (any, error) {
	if b.notBytes {
		return "not a byte stream", nil
	}
	return nil, fmt.Errorf("replay failed")
}

// TestResponseCacheStreamFailureRefills: a payload the store cannot
// replay (zero bytes written) must fall through to the handler, so the
// client still gets a response — and since the origin was called, the
// request must count as a miss, not a hit, on either surface.
func TestResponseCacheStreamFailureRefills(t *testing.T) {
	for name, body := range map[string]brokenStreamer{
		"load error": {},
		"not bytes":  {notBytes: true},
	} {
		t.Run(name, func(t *testing.T) {
			c, codec, calls := newCachedFixture(t, ResponseCacheConfig{Body: body})
			srv := httptest.NewServer(c)
			defer srv.Close()

			req, _ := codec.EncodeRequest(ns, "search", []soap.Param{{Name: "q", Value: "x"}})
			postSOAP(t, srv.URL, req)
			status, resp := postSOAP(t, srv.URL, req)
			if status != http.StatusOK {
				t.Fatalf("status = %d", status)
			}
			if calls.Load() != 2 {
				t.Errorf("handler calls = %d, want 2 (refill after failed replay)", calls.Load())
			}
			if hits, misses := c.Stats(); hits != 0 || misses != 2 {
				t.Errorf("stats = %d hits / %d misses, want 0/2: a failed replay reached the origin", hits, misses)
			}
			msg, err := codec.DecodeEnvelope(resp)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Result().(*pair).Value != "x" {
				t.Errorf("result = %+v", msg.Result())
			}

			if _, _, err := c.Handle(req); err != nil {
				t.Fatal(err)
			}
			if hits, misses := c.Stats(); calls.Load() != 3 || hits != 0 || misses != 3 {
				t.Errorf("after Handle: calls = %d, stats = %d/%d; want 3 calls, 0/3", calls.Load(), hits, misses)
			}
		})
	}
}
