package soap

import (
	"testing"

	"repro/internal/typemap"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the full decode path
// (tokenizer → namespace resolution → streaming deserializer →
// multiref resolution): it must never panic, whatever arrives on the
// wire. Run longer with:
//
//	go test -fuzz FuzzDecodeEnvelope ./internal/soap
func FuzzDecodeEnvelope(f *testing.F) {
	reg := newFuzzRegistry()
	codec := NewCodec(reg)

	// Seed with real envelopes, fault envelopes, multiref, and junk.
	if doc, err := codec.EncodeResponse(testNS, "doGoogleSearch", sampleResult()); err == nil {
		f.Add(doc)
	}
	if doc, err := codec.EncodeRequest(testNS, "op", []Param{{Name: "q", Value: "x"}, {Name: "n", Value: 3}}); err == nil {
		f.Add(doc)
	}
	if doc, err := codec.EncodeFault(&Fault{Code: "c", String: "s"}); err == nil {
		f.Add(doc)
	}
	f.Add([]byte(axisMultiRefResponse))
	for _, doc := range spacedMultiRefResponses() {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/></e:Envelope>`))
	f.Add([]byte(`<a href="#x"/>`))
	f.Add([]byte(`not xml at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.DecodeEnvelope(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

// newFuzzRegistry builds the registry used by the fuzz codec (the same
// shape as newTestCodec without requiring a *testing.T).
func newFuzzRegistry() *typemap.Registry {
	reg := typemap.NewRegistry()
	_ = reg.Register(typemap.QName{Space: testNS, Local: "DirectoryCategory"}, directoryCategory{})
	_ = reg.Register(typemap.QName{Space: testNS, Local: "ResultElement"}, resultElement{})
	_ = reg.Register(typemap.QName{Space: testNS, Local: "GoogleSearchResult"}, searchResult{})
	return reg
}
