package dom

import (
	"reflect"
	"testing"

	"repro/internal/sax"
)

const sample = `<catalog xmlns="urn:cat" version="2">` +
	`<book id="1"><title>Go</title><price>10.5</price></book>` +
	`<book id="2"><title>XML</title><price>7</price></book>` +
	`<!-- trailing comment -->` +
	`</catalog>`

func TestParseTree(t *testing.T) {
	doc, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root
	if root.Name.Local != "catalog" || root.Name.Space != "urn:cat" {
		t.Fatalf("root = %+v", root.Name)
	}
	if v, ok := root.Attr("version"); !ok || v != "2" {
		t.Errorf("version attr = %q, %v", v, ok)
	}
	books := root.Elems("book")
	if len(books) != 2 {
		t.Fatalf("got %d books", len(books))
	}
	if got := books[0].Elem("title").Children[0].Text; got != "Go" {
		t.Errorf("title = %q", got)
	}
	if got := books[1].Elem("price").Children[0].Text; got != "7" {
		t.Errorf("price = %q", got)
	}
	if books[0].Parent != root {
		t.Error("parent link broken")
	}
}

func TestElemNS(t *testing.T) {
	doc, err := Parse([]byte(`<a xmlns:x="urn:1" xmlns:y="urn:2"><x:v>1</x:v><y:v>2</y:v></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root.ElemNS("urn:2", "v").Children[0].Text; got != "2" {
		t.Errorf("got %q", got)
	}
	if doc.Root.ElemNS("urn:3", "v") != nil {
		t.Error("expected nil for missing namespace")
	}
}

// TestXMLRoundTrip: the tree replays exactly the events the document
// records to, the trailing comment skipped by both.
func TestXMLRoundTrip(t *testing.T) {
	doc, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sax.Record([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("tree events differ from the recording:\n got %v\nwant %v", got, want)
	}
	b := &builder{}
	if err := doc.Replay(b); err != nil {
		t.Fatal(err)
	}
	replayed, err := b.document()
	if err != nil {
		t.Fatal(err)
	}
	if got := replayed.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("Replay differs from the recording:\n got %v\nwant %v", got, want)
	}
}

// TestNodeXML: a subtree's events are the recording of that subtree's
// own text, without the document brackets.
func TestNodeXML(t *testing.T) {
	doc, err := Parse([]byte(`<a><b k="v">x &amp; y</b><c/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sax.Record([]byte(`<b k="v">x &amp; y</b>`))
	if err != nil {
		t.Fatal(err)
	}
	want = want[1 : len(want)-1]
	if got := fragment(doc.Root.Elem("b")); !reflect.DeepEqual(got, want) {
		t.Errorf("subtree events = %v, want %v", got, want)
	}
}

// fragment is the subtree rooted at n as events, without the document
// brackets.
func fragment(n *Node) []sax.Event {
	var out []sax.Event
	n.appendEvents(&out)
	return out
}

func TestFromEvents(t *testing.T) {
	events, err := sax.Record([]byte(`<a><b>x</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := FromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Elem("b").Children[0].Text != "x" {
		t.Error("tree mismatch")
	}
}

func TestNodeEventsFragment(t *testing.T) {
	doc, err := Parse([]byte(`<a><b k="v">x</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Root.Elem("b")
	events := fragment(b)
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Kind != sax.StartElement || events[0].Attrs[0].Value != "v" {
		t.Errorf("events[0] = %+v", events[0])
	}
}

func TestClone(t *testing.T) {
	doc, err := Parse([]byte(`<a k="v"><b>x</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	c := doc.Root.Clone()
	if c.Parent != nil {
		t.Error("clone should have nil parent")
	}
	// Mutating the clone must not affect the original.
	c.Attrs[0].Value = "changed"
	c.Elem("b").Children[0].Text = "changed"
	if v, _ := doc.Root.Attr("k"); v != "v" {
		t.Error("original attr mutated through clone")
	}
	if doc.Root.Elem("b").Children[0].Text != "x" {
		t.Error("original text mutated through clone")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := &builder{}
	if _, err := b.document(); err == nil {
		t.Error("expected error for incomplete stream")
	}

	b2 := &builder{}
	_ = b2.OnStartDocument()
	if err := b2.OnEndElement(sax.Name{Local: "x"}); err == nil {
		t.Error("expected error for end without start")
	}

	b3 := &builder{}
	_ = b3.OnStartDocument()
	_ = b3.OnStartElement(sax.Name{Local: "a"}, nil)
	if err := b3.OnEndElement(sax.Name{Local: "b"}); err == nil {
		t.Error("expected mismatch error")
	}

	b4 := &builder{}
	_ = b4.OnStartDocument()
	_ = b4.OnStartElement(sax.Name{Local: "a"}, nil)
	if err := b4.OnEndDocument(); err == nil {
		t.Error("expected error for unclosed element")
	}
}

func TestAttrLexicalLookup(t *testing.T) {
	doc, err := Parse([]byte(`<a xmlns:p="urn:p" p:k="1" k="2"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := doc.Root.Attr("p:k"); !ok || v != "1" {
		t.Errorf("p:k = %q %v", v, ok)
	}
	if v, ok := doc.Root.Attr("k"); !ok || v != "2" {
		t.Errorf("k = %q %v", v, ok)
	}
	if v, ok := doc.Root.AttrNS("urn:p", "k"); !ok || v != "1" {
		t.Errorf("AttrNS = %q %v", v, ok)
	}
	if _, ok := doc.Root.Attr("missing"); ok {
		t.Error("missing attr reported present")
	}
}
