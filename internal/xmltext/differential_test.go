package xmltext_test

import (
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/soap"
	"repro/internal/xmltext"
)

// envelopeSeeds returns the SOAP documents the differential starts
// from: the three Google operations' responses, a request, a fault, an
// Axis-style multi-reference response and the decoder fuzz target's
// junk inputs.
func envelopeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		tb.Fatal(err)
	}
	var docs [][]byte
	add := func(doc []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, doc)
	}
	add(codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, googleapi.Search("fixed query", 0, 10)))
	add(codec.EncodeResponse(googleapi.Namespace, googleapi.OpSpellingSuggestion, googleapi.SpellingSuggestion("web servises cashing")))
	add(codec.EncodeResponse(googleapi.Namespace, googleapi.OpGetCachedPage, googleapi.CachedPage("http://example.com/fixed")))
	add(codec.EncodeRequest(googleapi.Namespace, googleapi.OpGoogleSearch,
		googleapi.SearchParams("key", "q & <a>", 0, 10, false, "", true, "lang_en")))
	add(codec.EncodeFault(&soap.Fault{Code: "soapenv:Server", String: "boom", Detail: "<x/>"}))
	for _, s := range []string{
		`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"` +
			` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><soapenv:Body>` +
			`<ns1:opResponse xmlns:ns1="urn:TestSearch"><return href="#id0"/></ns1:opResponse>` +
			`<multiRef id="id0" xsi:type="xsd:string" xmlns:xsd="http://www.w3.org/2001/XMLSchema">v</multiRef>` +
			`</soapenv:Body></soapenv:Envelope>`,
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/></e:Envelope>`,
		`<a href="#x"/>`,
		`not xml at all`,
	} {
		docs = append(docs, []byte(s))
	}
	return docs
}

// FuzzScannerMatchesReference runs the scanner and the reference
// tokenizer over the same bytes and requires the same tokens (kind,
// name, text, attributes, self-closing) and the same error, at the same
// offset and line. The scanner is driven both as NewScanner makes it
// and as a Reset scanner whose intern table already holds a Google
// response's names, reading the input twice so the second pass meets
// its own names in the table. Run longer with:
//
//	go test -fuzz FuzzScannerMatchesReference ./internal/xmltext
func FuzzScannerMatchesReference(f *testing.F) {
	seeds := envelopeSeeds(f)
	for _, s := range xmltext.ScannerSeeds {
		f.Add([]byte(s))
	}
	for _, doc := range seeds {
		f.Add(doc)
	}
	warm := seeds[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "NewScanner", xmltext.NewScanner(data), data)
		var sc xmltext.Scanner
		sc.Reset(warm)
		drain(&sc)
		for _, pass := range []string{"Reset, first pass", "Reset, second pass"} {
			sc.Reset(data)
			matchReference(t, pass, &sc, data)
		}
	})
}

// drain reads s to its end or first error.
func drain(s *xmltext.Scanner) {
	for {
		if _, err := s.Next(); err != nil {
			return
		}
	}
}

// matchReference compares got with the reference scanner over data,
// token by token, until both end or fail.
func matchReference(t *testing.T, mode string, got xmltext.TokenScanner, data []byte) {
	t.Helper()
	want := xmltext.NewReferenceScanner(data)
	// The token count is bounded by the input length.
	for i := 0; i <= len(data)+2; i++ {
		gt, gerr := got.Next()
		wt, werr := want.Next()
		if !sameErr(gerr, werr) {
			t.Fatalf("%s: token %d of %q: error %v, reference %v", mode, i, data, gerr, werr)
		}
		if werr != nil {
			return
		}
		if gt.Kind != wt.Kind || gt.Name != wt.Name || gt.Text != wt.Text ||
			gt.SelfClosing != wt.SelfClosing || !slices.Equal(gt.Attrs, wt.Attrs) {
			t.Fatalf("%s: token %d of %q: got %+v, reference %+v", mode, i, data, gt, wt)
		}
	}
	t.Fatalf("%s: reference produced more tokens than input bytes (%d)", mode, len(data))
}

// sameErr reports whether two Next results failed alike: both nil, both
// io.EOF, or syntax errors with the same message, offset and line.
func sameErr(got, want error) bool {
	var g, w *xmltext.SyntaxError
	if errors.As(got, &g) && errors.As(want, &w) {
		return *g == *w
	}
	return got == want
}

// TestInternTableRefusesLongNames: a document of 10 000 distinct 1 KiB
// element names leaves no string over the 64-byte cap in a Reset
// scanner's table, while the same scanner still interns short names.
func TestInternTableRefusesLongNames(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 10000; i++ {
		name := strings.Repeat("n", 1019) + strconv.Itoa(10000+i)
		b.WriteString("<" + name + "/>")
	}
	b.WriteString("<short a='v'/></root>")
	var sc xmltext.Scanner
	sc.Reset([]byte(b.String()))
	n := 0
	for {
		_, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2*10002 {
		t.Fatalf("tokens = %d, want %d", n, 2*10002)
	}
	if long := xmltext.InternedOver(&sc, 64); len(long) > 0 {
		t.Fatalf("%d table entries over 64 B, first %d B", len(long), len(long[0]))
	}
	if got := len(xmltext.InternedOver(&sc, 0)); got == 0 {
		t.Fatal("no short name interned")
	}
}
