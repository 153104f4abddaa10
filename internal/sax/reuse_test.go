package sax

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// render prints every field of every event, attributes included.
func render(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.String()
}

// TestReusedParserLeavesEventsAlone: events recorded from one document
// are unchanged after the same parser has read two more, whose names,
// attributes and namespace bindings overwrite its buffers.
func TestReusedParserLeavesEventsAlone(t *testing.T) {
	docs := []string{
		`<a:r xmlns:a="urn:a" x="1" y="two"><a:k z="3">text</a:k><k/></a:r>`,
		`<b:s xmlns:b="urn:b" xmlns:c="urn:c" c:x="9" p="q"><b:r>other</b:r><r x="1"/></b:s>`,
		`<r xmlns="urn:d" long="` + strings.Repeat("v", 200) + `"><k q="1" x="2" y="3">third</k></r>`,
	}
	p := NewParser()
	rec := &recorder{}
	if err := p.Parse([]byte(docs[0]), rec); err != nil {
		t.Fatal(err)
	}
	events := rec.events
	want := render(events)
	for _, doc := range docs[1:] {
		if err := p.Parse([]byte(doc), &recorder{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := render(events); got != want {
		t.Errorf("events changed after later parses:\n got %s\nwant %s", got, want)
	}
}

// TestParserDropsDocument: once Parse returns, neither an owned parser
// nor one back in Parse's pool keeps the document reachable.
func TestParserDropsDocument(t *testing.T) {
	owned := NewParser()
	for _, c := range []struct {
		name  string
		parse func([]byte) error
	}{
		{"owned", func(doc []byte) error { return owned.Parse(doc, NopHandler{}) }},
		{"pooled", func(doc []byte) error { return Parse(doc, NopHandler{}) }},
	} {
		collected := make(chan struct{})
		if err := parseCollectable(c.parse, collected); err != nil {
			t.Fatal(err)
		}
		// One collection only: a second would also empty the pool's
		// victim cache and free a document a pooled parser still held.
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Second):
			t.Errorf("%s parser: document still reachable after Parse returned", c.name)
		}
	}
	runtime.KeepAlive(owned)
}

// parseCollectable parses a fresh document that closes collected when
// the collector frees it.
//
//go:noinline
func parseCollectable(parse func([]byte) error, collected chan struct{}) error {
	doc := []byte(`<r xmlns:p="urn:p" p:a="v"><p:k>` + strings.Repeat("text ", 64) + `</p:k></r>`)
	runtime.SetFinalizer(&doc[0], func(*byte) { close(collected) })
	return parse(doc)
}
