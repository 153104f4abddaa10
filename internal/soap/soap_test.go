package soap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sax"
	"repro/internal/typemap"
)

const testNS = "urn:TestSearch"

type directoryCategory struct {
	FullViewableName string
	SpecialEncoding  string
}

type resultElement struct {
	Summary                   string
	URL                       string
	Snippet                   string
	Title                     string
	CachedSize                string
	RelatedInformationPresent bool
	HostName                  string
	DirectoryCategory         directoryCategory
	DirectoryTitle            string
}

type searchResult struct {
	DocumentFiltering          bool
	SearchComments             string
	EstimatedTotalResultsCount int
	EstimateIsExact            bool
	ResultElements             []resultElement
	SearchQuery                string
	StartIndex                 int
	EndIndex                   int
	SearchTips                 string
	DirectoryCategories        []directoryCategory
	SearchTime                 float64
}

func newTestCodec(t *testing.T) *Codec {
	t.Helper()
	reg := typemap.NewRegistry()
	for _, r := range []struct {
		local string
		proto any
	}{
		{"DirectoryCategory", directoryCategory{}},
		{"ResultElement", resultElement{}},
		{"GoogleSearchResult", searchResult{}},
	} {
		if err := reg.Register(typemap.QName{Space: testNS, Local: r.local}, r.proto); err != nil {
			t.Fatal(err)
		}
	}
	return NewCodec(reg)
}

func sampleResult() *searchResult {
	return &searchResult{
		DocumentFiltering:          true,
		SearchComments:             "",
		EstimatedTotalResultsCount: 23700,
		EstimateIsExact:            false,
		ResultElements: []resultElement{
			{
				Summary:    "The Go Programming Language",
				URL:        "https://go.dev/",
				Snippet:    "Go is an open source programming language <b>supported</b> by Google",
				Title:      "The Go Programming Language",
				CachedSize: "12k",
				HostName:   "go.dev",
				DirectoryCategory: directoryCategory{
					FullViewableName: "Top/Computers/Programming/Languages/Go",
					SpecialEncoding:  "",
				},
				DirectoryTitle: "Go",
			},
			{
				Summary: "Go (programming language) - Wikipedia",
				URL:     "https://en.wikipedia.org/wiki/Go_(programming_language)",
				Title:   "Go at Wikipedia",
			},
		},
		SearchQuery: "golang",
		StartIndex:  1,
		EndIndex:    2,
		SearchTips:  "Try fewer & simpler keywords",
		DirectoryCategories: []directoryCategory{
			{FullViewableName: "Top/Computers", SpecialEncoding: "utf-8"},
		},
		SearchTime: 0.194871,
	}
}

func TestEncodeRequestShape(t *testing.T) {
	c := newTestCodec(t)
	doc, err := c.EncodeRequest(testNS, "doGoogleSearch", []Param{
		{Name: "key", Value: "00000"},
		{Name: "q", Value: "golang"},
		{Name: "start", Value: 0},
		{Name: "maxResults", Value: 10},
		{Name: "filter", Value: true},
		{Name: "safeSearch", Value: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	for _, want := range []string{
		"soapenv:Envelope",
		"soapenv:Body",
		"ns1:doGoogleSearch",
		`soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"`,
		`<key xsi:type="xsd:string">00000</key>`,
		`<start xsi:type="xsd:int">0</start>`,
		`<filter xsi:type="xsd:boolean">true</filter>`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("request missing %q:\n%s", want, s)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	c := newTestCodec(t)
	params := []Param{
		{Name: "key", Value: "k"},
		{Name: "q", Value: "hello <world> & \"friends\""},
		{Name: "start", Value: 5},
		{Name: "deep", Value: int64(1 << 40)},
		{Name: "ratio", Value: 2.5},
		{Name: "flag", Value: true},
		{Name: "blob", Value: []byte{0, 1, 2, 255}},
	}
	doc, err := c.EncodeRequest(testNS, "op", params)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Wrapper.Local != "op" || msg.Wrapper.Space != testNS {
		t.Errorf("wrapper = %+v", msg.Wrapper)
	}
	if len(msg.Params) != len(params) {
		t.Fatalf("params = %d, want %d", len(msg.Params), len(params))
	}
	for i, p := range params {
		got := msg.Params[i]
		if got.Name != p.Name {
			t.Errorf("param %d name = %q, want %q", i, got.Name, p.Name)
		}
		if b, ok := p.Value.([]byte); ok {
			if !bytes.Equal(got.Value.([]byte), b) {
				t.Errorf("param %s bytes = %v, want %v", p.Name, got.Value, b)
			}
			continue
		}
		if got.Value != p.Value {
			t.Errorf("param %s = %#v (%T), want %#v (%T)", p.Name, got.Value, got.Value, p.Value, p.Value)
		}
	}
}

func TestResponseRoundTripComplex(t *testing.T) {
	c := newTestCodec(t)
	orig := sampleResult()
	doc, err := c.EncodeResponse(testNS, "doGoogleSearch", orig)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, doc)
	}
	if msg.Wrapper.Local != "doGoogleSearchResponse" {
		t.Errorf("wrapper = %v", msg.Wrapper)
	}
	got, ok := msg.Result().(*searchResult)
	if !ok {
		t.Fatalf("result type = %T", msg.Result())
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("round trip mismatch:\norig: %+v\ngot:  %+v", orig, got)
	}
}

func TestResponseViaRecordedEvents(t *testing.T) {
	c := newTestCodec(t)
	orig := sampleResult()
	doc, err := c.EncodeResponse(testNS, "doGoogleSearch", orig)
	if err != nil {
		t.Fatal(err)
	}
	events, err := sax.Record(doc)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelopeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.Result().(*searchResult)
	if !ok {
		t.Fatalf("result type = %T", msg.Result())
	}
	if !reflect.DeepEqual(orig, got) {
		t.Error("event replay decode differs from original")
	}
	// Two replays construct distinct objects: no aliasing.
	msg2, err := c.DecodeEnvelopeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if msg2.Result() == msg.Result() {
		t.Error("replays returned the same pointer")
	}
}

func TestEncodeNilResult(t *testing.T) {
	c := newTestCodec(t)
	doc, err := c.EncodeResponse(testNS, "op", nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Result() != nil {
		t.Errorf("result = %#v, want nil", msg.Result())
	}
}

func TestEncodeNilPointerField(t *testing.T) {
	type outer struct {
		Name  string
		Inner *directoryCategory
	}
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: testNS, Local: "DirectoryCategory"}, directoryCategory{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(typemap.QName{Space: testNS, Local: "Outer"}, outer{}); err != nil {
		t.Fatal(err)
	}
	c := NewCodec(reg)
	doc, err := c.EncodeResponse(testNS, "op", &outer{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.Result().(*outer)
	if got.Name != "x" || got.Inner != nil {
		t.Errorf("got %+v", got)
	}
}

func TestPointerFieldRoundTrip(t *testing.T) {
	type outer struct {
		Inner *directoryCategory
	}
	reg := typemap.NewRegistry()
	_ = reg.Register(typemap.QName{Space: testNS, Local: "DirectoryCategory"}, directoryCategory{})
	_ = reg.Register(typemap.QName{Space: testNS, Local: "Outer"}, outer{})
	c := NewCodec(reg)
	doc, err := c.EncodeResponse(testNS, "op", &outer{Inner: &directoryCategory{FullViewableName: "deep"}})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.Result().(*outer)
	if got.Inner == nil || got.Inner.FullViewableName != "deep" {
		t.Errorf("got %+v", got)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	c := newTestCodec(t)
	f := &Fault{Code: "soapenv:Server", String: "backend exploded", Actor: "urn:a", Detail: "stack trace here"}
	doc, err := c.EncodeFault(f)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Fault == nil {
		t.Fatal("no fault decoded")
	}
	if msg.Fault.Code != f.Code || msg.Fault.String != f.String || msg.Fault.Actor != f.Actor || msg.Fault.Detail != f.Detail {
		t.Errorf("fault = %+v, want %+v", msg.Fault, f)
	}
	if !strings.Contains(msg.Fault.Error(), "backend exploded") {
		t.Errorf("Error() = %q", msg.Fault.Error())
	}
}

func TestDecodeErrors(t *testing.T) {
	c := newTestCodec(t)
	cases := map[string]string{
		"not an envelope": `<notsoap/>`,
		"bad xml":         `<soapenv:Envelope`,
		"unknown type": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"` +
			` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:m="urn:m">` +
			`<e:Body><m:op><x xsi:type="m:NoSuchType">v</x></m:op></e:Body></e:Envelope>`,
		"undeclared xsi prefix": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"` +
			` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:m="urn:m">` +
			`<e:Body><m:op><x xsi:type="nope:string">v</x></m:op></e:Body></e:Envelope>`,
		"bad int": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"` +
			` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
			` xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:m="urn:m">` +
			`<e:Body><m:op><x xsi:type="xsd:int">abc</x></m:op></e:Body></e:Envelope>`,
		"bad base64": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"` +
			` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"` +
			` xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:m="urn:m">` +
			`<e:Body><m:op><x xsi:type="xsd:base64Binary">!!!</x></m:op></e:Body></e:Envelope>`,
	}
	for name, doc := range cases {
		if _, err := c.DecodeEnvelope([]byte(doc)); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestDecodeHeaderSkipped(t *testing.T) {
	c := newTestCodec(t)
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"` +
		` xmlns:xsd="http://www.w3.org/2001/XMLSchema"` +
		` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:m="urn:m">` +
		`<e:Header><m:tx id="7"><m:nested>deep</m:nested></m:tx></e:Header>` +
		`<e:Body><m:op><v xsi:type="xsd:string">ok</v></m:op></e:Body></e:Envelope>`
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := paramValue(msg, "v"); got != "ok" {
		t.Errorf("v = %#v", got)
	}
}

func TestDecodeUntypedDefaultsToString(t *testing.T) {
	c := newTestCodec(t)
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/" xmlns:m="urn:m">` +
		`<e:Body><m:op><v>plain</v></m:op></e:Body></e:Envelope>`
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := paramValue(msg, "v"); got != "plain" {
		t.Errorf("v = %#v", got)
	}
}

func TestDecodeUnknownStructFieldTolerated(t *testing.T) {
	c := newTestCodec(t)
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"` +
		` xmlns:xsd="http://www.w3.org/2001/XMLSchema"` +
		` xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:g="` + testNS + `">` +
		`<e:Body><g:opResponse><return xsi:type="g:DirectoryCategory">` +
		`<fullViewableName xsi:type="xsd:string">Top</fullViewableName>` +
		`<futureField xsi:type="xsd:string">ignored</futureField>` +
		`</return></g:opResponse></e:Body></e:Envelope>`
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	dc := msg.Result().(*directoryCategory)
	if dc.FullViewableName != "Top" {
		t.Errorf("got %+v", dc)
	}
}

func TestEmptyArrayRoundTrip(t *testing.T) {
	c := newTestCodec(t)
	orig := &searchResult{ResultElements: []resultElement{}, DirectoryCategories: []directoryCategory{}}
	doc, err := c.EncodeResponse(testNS, "op", orig)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.Result().(*searchResult)
	if got.ResultElements == nil || len(got.ResultElements) != 0 {
		t.Errorf("ResultElements = %#v", got.ResultElements)
	}
}

func TestUnregisteredStructEncodeError(t *testing.T) {
	c := newTestCodec(t)
	type unregistered struct{ X int }
	if _, err := c.EncodeResponse(testNS, "op", &unregistered{}); err == nil {
		t.Error("expected error for unregistered struct")
	}
}

func TestUnsupportedKindEncodeError(t *testing.T) {
	c := newTestCodec(t)
	if _, err := c.EncodeRequest(testNS, "op", []Param{{Name: "f", Value: func() {}}}); err == nil {
		t.Error("expected error for func param")
	}
}

func TestStringEscapingRoundTripProperty(t *testing.T) {
	c := newTestCodec(t)
	f := func(s string) bool {
		if !legalXML(s) {
			return true
		}
		doc, err := c.EncodeRequest(testNS, "op", []Param{{Name: "v", Value: s}})
		if err != nil {
			return false
		}
		msg, err := c.DecodeEnvelope(doc)
		if err != nil {
			return false
		}
		got, _ := paramValue(msg, "v")
		return got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNumericRoundTripProperty(t *testing.T) {
	c := newTestCodec(t)
	f := func(i int64, u uint64, d float64, b bool) bool {
		doc, err := c.EncodeRequest(testNS, "op", []Param{
			{Name: "i", Value: i},
			{Name: "u", Value: u},
			{Name: "d", Value: d},
			{Name: "b", Value: b},
		})
		if err != nil {
			return false
		}
		msg, err := c.DecodeEnvelope(doc)
		if err != nil {
			return false
		}
		gi, _ := paramValue(msg, "i")
		gu, _ := paramValue(msg, "u")
		gd, _ := paramValue(msg, "d")
		gb, _ := paramValue(msg, "b")
		return gi == i && gu == u && gd == d && gb == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	c := newTestCodec(t)
	f := func(data []byte) bool {
		doc, err := c.EncodeRequest(testNS, "op", []Param{{Name: "blob", Value: data}})
		if err != nil {
			return false
		}
		msg, err := c.DecodeEnvelope(doc)
		if err != nil {
			return false
		}
		got, ok := paramValue(msg, "blob")
		if !ok {
			return false
		}
		if data == nil {
			return got == nil
		}
		gb, ok := got.([]byte)
		return ok && bytes.Equal(gb, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// legalXML reports whether every rune of s is a legal XML character.
func legalXML(s string) bool {
	for _, r := range s {
		switch {
		case r == 0x9 || r == 0xA || r == 0xD:
		case r >= 0x20 && r <= 0xD7FF:
		case r >= 0xE000 && r <= 0xFFFD:
		case r >= 0x10000 && r <= 0x10FFFF:
		default:
			return false
		}
	}
	return true
}

// TestWriteResponse: the pooled-buffer encoder must hand write exactly
// the bytes of EncodeResponse — it exists so the server can write a
// response without an intermediate []byte copy, not to change the wire
// form.
func TestWriteResponse(t *testing.T) {
	c := newTestCodec(t)
	orig := sampleResult()
	want, err := c.EncodeResponse(testNS, "doGoogleSearch", orig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	calls := 0
	err = c.WriteResponse(testNS, "doGoogleSearch", orig, func(env []byte) {
		calls++
		buf.Write(env)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("write called %d times, want 1", calls)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("pooled encoding diverges:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestWriteResponseErrorWritesNothing: an encoding failure must
// surface before any byte reaches the writer, so the HTTP layer can
// still send a clean 500.
func TestWriteResponseErrorWritesNothing(t *testing.T) {
	c := newTestCodec(t)
	type unregistered struct{ X chan int }
	calls := 0
	err := c.WriteResponse(testNS, "op", &unregistered{}, func([]byte) { calls++ })
	if err == nil {
		t.Fatal("encoding an unregistered type succeeded")
	}
	if calls != 0 {
		t.Errorf("failed encode called write %d times; must build fully before writing", calls)
	}
}

// paramValue returns the named parameter's value.
func paramValue(m *DecodedMessage, name string) (any, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return nil, false
}
