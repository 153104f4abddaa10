package client_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/soap"
	"repro/internal/transport"
)

// axisMultiRef is Axis 1.x's multi-ref rendering of a DirectoryCategory
// result, in the GoogleSearch namespace: the value sits in multiRef
// elements the return part points at with href.
const axisMultiRef = `<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
 <soapenv:Body>
  <ns1:doGoogleSearchResponse soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"
      xmlns:ns1="urn:GoogleSearch">
   <return href="#id0"/>
  </ns1:doGoogleSearchResponse>
  <multiRef id="id0" soapenc:root="0"
      soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"
      xsi:type="ns2:DirectoryCategory"
      xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/"
      xmlns:ns2="urn:GoogleSearch">
   <fullViewableName xsi:type="xsd:string">Top/Computers</fullViewableName>
   <specialEncoding href="#id1"/>
  </multiRef>
  <multiRef id="id1" soapenc:root="0"
      soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"
      xsi:type="soapenc:string"
      xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/">utf-8</multiRef>
 </soapenv:Body>
</soapenv:Envelope>`

// TestInvokeResolvesAxisMultiRef: a multi-ref response decodes to the
// object it carries through Invoke every time, not only while the memo
// has not seen it, and a cache pinned to the SAX-events store serves
// that object on the miss and on the hits replaying its recording.
func TestInvokeResolvesAxisMultiRef(t *testing.T) {
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	want := &googleapi.DirectoryCategory{FullViewableName: "Top/Computers", SpecialEncoding: "utf-8"}
	call := client.NewCall(codec, respondWith([]byte(axisMultiRef)), "http://inproc/", googleapi.Namespace,
		googleapi.OpGoogleSearch, "", client.Options{})
	for i := 0; i < 3; i++ {
		got, err := call.Invoke(context.Background())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("invoke %d: %#v, %v; want %#v", i, got, err, want)
		}
	}
	store, err := rep.NewRegistry(codec.Registry(), codec).Store("sax")
	if err != nil {
		t.Fatal(err)
	}
	cache := core.MustNew(core.Config{KeyGen: rep.NewStringKey(), Store: store, DefaultTTL: time.Hour})
	call = client.NewCall(codec, respondWith([]byte(axisMultiRef)), "http://inproc/", googleapi.Namespace,
		googleapi.OpGoogleSearch, "", client.Options{Handlers: []client.Handler{cache}})
	for i := 0; i < 3; i++ {
		ictx, err := call.InvokeContext(context.Background())
		if err != nil || !reflect.DeepEqual(ictx.Result, want) {
			t.Fatalf("sax-cached invoke %d: %#v, %v; want %#v", i, ictx.Result, err, want)
		}
		if hit := i > 0; ictx.CacheHit != hit {
			t.Fatalf("sax-cached invoke %d: CacheHit=%v, want %v", i, ictx.CacheHit, hit)
		}
	}
}

// searchTransport answers doGoogleSearch with googleapi.Search for the
// query in the request, as the origin does.
func searchTransport(t testing.TB) (*soap.Codec, transport.Transport) {
	t.Helper()
	disp, codec, err := googleapi.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	return codec, &transport.InProcess{Handler: disp}
}

// TestMemoConcurrentInvokes: two goroutines decode through one Call
// while its memo learns the search shape; each gets exactly the
// object its own response carries. Run under -race.
func TestMemoConcurrentInvokes(t *testing.T) {
	codec, tr := searchTransport(t)
	call := client.NewCall(codec, tr, "http://inproc/", googleapi.Namespace, googleapi.OpGoogleSearch, "", client.Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := fmt.Sprintf("worker %d query %d", g, i)
				got, err := call.Invoke(context.Background(), googleapi.SearchParams("k", q, i, 10, false, "", false, "")...)
				if err != nil {
					errs <- err
					return
				}
				if want := googleapi.Search(q, i, 10); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("worker %d: decoded %+v, want %+v", g, got, want)
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
}

// BenchmarkMemoDecode compares the full decode of the doGoogleSearch
// response (Table 7's "XML message" Load) with a memo hit on it: the
// post-paper "XML message + memo" row of EXPERIMENTS.md.
func BenchmarkMemoDecode(b *testing.B) {
	codec, _ := searchTransport(b)
	doc, err := codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, googleapi.Search("benchmark query", 0, 10))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.DecodeEnvelope(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		m := codec.NewEnvelopeMemo(nil)
		for i := 0; i < 2; i++ {
			if _, err := m.Decode(doc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Decode(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
