package xmltext_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

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

// holeSeeds are the documents encoding/xml rejects or normalises and
// the scanner once took as they were: literal CR line ends (XML 1.0
// §2.11), characters outside the Char production (§2.2), invalid UTF-8,
// and names that are not QNames (Namespaces in XML §3).
var holeSeeds = []string{
	"<a>\r\n</a>", "<a b=\"x\r\ny\">\r</a>", "<a><![CDATA[\r\n]]></a>",
	"<a>\x00</a>", "<a>￾</a>", "<a b=\"\x08\"/>",
	"<a>\xff</a>", "<\xb8/>", "<a b=\"\xc3\"/>",
	"<A::/>", "<a:b:c/>", "<a b:c:d=\"1\"/>", "<?A\xc9?><a/>",
}

// FuzzScannerVsStdlib runs the scanner and encoding/xml's RawToken, in
// Strict mode, over the same bytes and requires the same tokens, and
// the same verdict, up to the exceptions listed in stricter and laxer.
// The scanner is driven both as NewScanner makes it and as a Reset
// scanner whose intern table already holds a Google response's names,
// reading the input twice so the second pass meets its own names in
// the table; all three passes must agree exactly, errors included. Run
// longer with:
//
//	go test -fuzz '^FuzzScannerVsStdlib$' ./internal/xmltext
func FuzzScannerVsStdlib(f *testing.F) {
	seeds := envelopeSeeds(f)
	for _, s := range xmltext.ScannerSeeds {
		f.Add([]byte(s))
	}
	for _, doc := range seeds {
		f.Add(doc)
	}
	for _, s := range holeSeeds {
		f.Add([]byte(s))
	}
	warm := seeds[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		got := scan(xmltext.NewScanner(data), data)
		matchStdlib(t, got, stdlibScan(data), data)
		var sc xmltext.Scanner
		sc.Reset(warm)
		drain(&sc)
		for _, pass := range []string{"Reset, first pass", "Reset, second pass"} {
			sc.Reset(data)
			if again := scan(&sc, data); !slices.Equal(again.toks, got.toks) || !sameErr(again.err, got.err) {
				t.Fatalf("%s of %q: %q, %v; NewScanner: %q, %v", pass, data, again.toks, again.err, got.toks, got.err)
			}
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

// stream is one tokenizer's canonical reading of a document: its
// tokens and the error that ended it, nil at a clean end.
type stream struct {
	toks []string
	err  error
}

// scan reads data with s, canonically.
func scan(s *xmltext.Scanner, data []byte) stream {
	var st stream
	for len(st.toks) <= len(data)+2 {
		tok, err := s.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				st.err = err
			}
			return st
		}
		switch tok.Kind {
		case xmltext.KindStartElement:
			st.toks = append(st.toks, startTok(tok.Name, tok.Attrs))
		case xmltext.KindEndElement:
			st.toks = append(st.toks, "end "+tok.Name)
		case xmltext.KindCharData:
			st.toks = append(st.toks, fmt.Sprintf("text %q", tok.Text))
		case xmltext.KindComment:
			st.toks = append(st.toks, fmt.Sprintf("comment %q", tok.Text))
		case xmltext.KindProcInst:
			st.toks = append(st.toks, fmt.Sprintf("pi %q %q", tok.Name, tok.Text))
		case xmltext.KindDirective:
			st.toks = append(st.toks, directive)
		}
	}
	st.err = fmt.Errorf("more tokens than input bytes (%d)", len(data))
	return st
}

// directive stands for every directive token: the two tokenizers skip
// a DOCTYPE differently (see laxer).
const directive = "directive"

func startTok(name string, attrs []xmltext.Attr) string {
	var b strings.Builder
	b.WriteString("start " + name)
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
	}
	return b.String()
}

// stdlibScan reads data with encoding/xml's RawToken in Strict mode,
// canonically. Whitespace outside the root element is dropped, as the
// scanner drops it.
func stdlibScan(data []byte) stream {
	d := xml.NewDecoder(bytes.NewReader(data))
	d.Strict = true
	var st stream
	depth := 0
	for {
		tok, err := d.RawToken()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				st.err = err
			}
			return st
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			depth++
			attrs := make([]xmltext.Attr, len(tok.Attr))
			names := map[string]bool{}
			dup := ""
			for i, a := range tok.Attr {
				attrs[i] = xmltext.Attr{Name: stdName(a.Name), Value: a.Value}
				if names[attrs[i].Name] {
					dup = duplicateMark
				}
				names[attrs[i].Name] = true
			}
			st.toks = append(st.toks, startTok(stdName(tok.Name), attrs)+dup)
		case xml.EndElement:
			depth--
			st.toks = append(st.toks, "end "+stdName(tok.Name))
		case xml.CharData:
			if depth <= 0 && len(bytes.TrimLeft(tok, " \t\r\n")) == 0 {
				continue
			}
			st.toks = append(st.toks, fmt.Sprintf("text %q", tok))
		case xml.Comment:
			st.toks = append(st.toks, fmt.Sprintf("comment %q", tok))
		case xml.ProcInst:
			st.toks = append(st.toks, fmt.Sprintf("pi %q %q", tok.Target, tok.Inst))
		case xml.Directive:
			st.toks = append(st.toks, directive)
		}
	}
}

// duplicateMark ends a start tag RawToken read with a repeated
// attribute name, which only there the scanner may refuse.
const duplicateMark = " (duplicate attribute)"

// stdName rejoins a raw name RawToken split at its colon.
func stdName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// matchStdlib requires got and want to agree token by token, and the
// first place they part to be an exception: the scanner failing where
// encoding/xml read on must be in stricter, and encoding/xml failing
// where the scanner read on must be in laxer.
func matchStdlib(t *testing.T, got, want stream, data []byte) {
	t.Helper()
	for i := 0; i < len(got.toks) && i < len(want.toks); i++ {
		if got.toks[i] == directive || want.toks[i] == directive {
			return // see laxer
		}
		if got.toks[i] != want.toks[i] {
			t.Fatalf("token %d of %q: %s, encoding/xml %s", i, data, got.toks[i], want.toks[i])
		}
	}
	switch {
	case hasDirective(data):
		// See laxer.
	case len(got.toks) == len(want.toks) && (got.err == nil) == (want.err == nil):
	case len(got.toks) < len(want.toks) || len(got.toks) == len(want.toks) && got.err != nil:
		if got.err == nil {
			t.Fatalf("%q: ended after %q, encoding/xml read %q", data, got.toks, want.toks)
		}
		clause := stricter(got.err)
		if clause == duplicateClause && (len(want.toks) == len(got.toks) || !strings.HasSuffix(want.toks[len(got.toks)], duplicateMark)) {
			clause = ""
		}
		if clause == "" {
			t.Fatalf("%q: %v after %q; encoding/xml read on: %q, %v", data, got.err, got.toks, want.toks, want.err)
		}
	default:
		if want.err == nil {
			t.Fatalf("%q: encoding/xml ended after %q, scanner read %q", data, want.toks, got.toks)
		}
		if laxer(want.err) == "" {
			t.Fatalf("%q: encoding/xml: %v after %q; scanner read on: %q, %v", data, want.err, want.toks, got.toks, got.err)
		}
	}
}

// stricter returns the clause under which the scanner rightly rejects
// what RawToken accepts, or "" when err is no such rejection. RawToken
// does not match end tags to start tags or count roots, and it takes a
// surrogate character reference as U+FFFD.
func stricter(err error) string {
	msg := err.Error()
	for _, e := range []struct{ msg, clause string }{
		{"does not match open element", "XML 1.0 §3 WFC: Element Type Match"},
		{"unexpected end tag", "XML 1.0 §3 WFC: Element Type Match"},
		{"is not closed", "XML 1.0 §3 WFC: Element Type Match"},
		{"no root element", "XML 1.0 §2.1: one root element"},
		{"multiple root elements", "XML 1.0 §2.1: one root element"},
		{"outside root element", "XML 1.0 §2.1: only Misc outside the root"},
		{"duplicate attribute", duplicateClause},
		{"is not a QName", "Namespaces in XML 1.0 §3: QName (':a', 'a:')"},
		{"needs a space before its body", "XML 1.0 §2.6 PI: S after the target"},
	} {
		if strings.Contains(msg, e.msg) {
			return e.clause
		}
	}
	if m := charRef.FindStringSubmatch(msg); m != nil {
		base := 10
		if m[1] == "x" {
			base = 16
		}
		if n, err := strconv.ParseUint(m[2], base, 32); err == nil && 0xD800 <= n && n <= 0xDFFF {
			return "XML 1.0 §4.1 WFC: Legal Character (a surrogate is no Char)"
		}
	}
	return ""
}

const duplicateClause = "XML 1.0 §3.1 WFC: Unique Att Spec"

var charRef = regexp.MustCompile(`&#(x?)([0-9a-fA-F]+); is not a legal XML character`)

// laxer returns the clause under which encoding/xml rejects what the
// scanner accepts, or "" when err is no such rejection: encoding/xml
// interprets the XML declaration and checks names against the 4th
// edition's character classes, where the scanner takes the 5th
// edition's NameStartChar and NameChar ranges. Directives are the third
// exception (XML 1.0 §2.8 doctypedecl): the two skip a DOCTYPE by
// different rules, the scanner by bracket depth, encoding/xml by quotes
// and angle brackets, and neither parses markup declarations, so
// matchStdlib compares no token from the first directive on, and no
// verdict for a document that may hold one.
func laxer(err error) string {
	msg := err.Error()
	_, name, invalidName := strings.Cut(msg, "invalid XML name: ")
	switch {
	case strings.HasPrefix(msg, "xml: unsupported version"), strings.HasPrefix(msg, "xml: encoding"):
		return "XML 1.0 §2.8 XMLDecl: the scanner does not interpret the declaration"
	case invalidName && !isASCII(name) && utf8.ValidString(name):
		return "XML 1.0 §2.3 Name: 5th edition name characters"
	}
	return ""
}

// hasDirective reports whether data has a "<!" that opens neither a
// comment nor a CDATA section.
func hasDirective(data []byte) bool {
	for i := 0; ; i += 2 {
		j := bytes.Index(data[i:], []byte("<!"))
		if j < 0 {
			return false
		}
		if i += j; i+2 >= len(data) || (data[i+2] != '-' && data[i+2] != '[') {
			return true
		}
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// sameErr reports whether two scans failed alike: both nil, or syntax
// errors with the same message, offset and line.
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
