package sax_test

import (
	"testing"

	"repro/internal/googleapi"
	"repro/internal/sax"
)

// googleSearchResponse is the doGoogleSearch response envelope the
// server sends for a ten-result query.
func googleSearchResponse(tb testing.TB) []byte {
	tb.Helper()
	_, codec, err := googleapi.NewDispatcher()
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := codec.EncodeResponse(googleapi.Namespace, googleapi.OpGoogleSearch, googleapi.Search("fixed query", 0, 10))
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestParseAllocs: once a Parser has read a document, reading it again
// allocates only the character-data strings, one per event (Go keeps
// one-byte strings in a static table, so those cost none). Names,
// attributes and namespace bindings come from the parser's reused
// buffers and its scanner's intern table. The parser is owned, not
// pooled, so the count does not depend on the pool keeping it.
func TestParseAllocs(t *testing.T) {
	doc := googleSearchResponse(t)
	events, err := sax.Record(doc)
	if err != nil {
		t.Fatal(err)
	}
	texts := 0
	for _, e := range events {
		if e.Kind == sax.Characters && len(e.Text) > 1 {
			texts++
		}
	}
	p := sax.NewParser()
	parse := func() {
		if err := p.Parse(doc, sax.NopHandler{}); err != nil {
			t.Fatal(err)
		}
	}
	parse()
	if got := testing.AllocsPerRun(20, parse); got != float64(texts) {
		t.Errorf("second parse allocates %v, want %d (one per character-data string)", got, texts)
	}
}
