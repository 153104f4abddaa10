package sax

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable4EventSequence(t *testing.T) {
	// The paper's Table 4: the SAX events sequence for
	// <doc><para>Hello, world!</para></doc>.
	events, err := Record([]byte(`<doc><para>Hello, world!</para></doc>`))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		got = append(got, e.String())
	}
	want := []string{
		"start document",
		"start element: doc",
		"start element: para",
		"characters: Hello, world!",
		"end element: para",
		"end element: doc",
		"end document",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNamespaceResolution(t *testing.T) {
	doc := `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns="urn:default">` +
		`<s:Body><search xmlns="urn:google" q="x"/></s:Body></s:Envelope>`
	events, err := Record([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	var starts []Event
	for _, e := range events {
		if e.Kind == StartElement {
			starts = append(starts, e)
		}
	}
	if len(starts) != 3 {
		t.Fatalf("got %d start elements", len(starts))
	}
	if starts[0].Name.Space != "http://schemas.xmlsoap.org/soap/envelope/" || starts[0].Name.Local != "Envelope" {
		t.Errorf("envelope name = %+v", starts[0].Name)
	}
	if starts[1].Name.Space != "http://schemas.xmlsoap.org/soap/envelope/" || starts[1].Name.Local != "Body" {
		t.Errorf("body name = %+v", starts[1].Name)
	}
	if starts[2].Name.Space != "urn:google" {
		t.Errorf("search space = %q, want urn:google", starts[2].Name.Space)
	}
	// Unprefixed attribute is never namespace-qualified.
	var qAttr *Attribute
	for i, a := range starts[2].Attrs {
		if a.Name.Local == "q" {
			qAttr = &starts[2].Attrs[i]
		}
	}
	if qAttr == nil {
		t.Fatal("attribute q not found")
	}
	if qAttr.Name.Space != "" {
		t.Errorf("unprefixed attribute got namespace %q", qAttr.Name.Space)
	}
}

func TestNamespaceScopeRestored(t *testing.T) {
	doc := `<a xmlns="urn:outer"><b xmlns="urn:inner"/><c/></a>`
	events, err := Record([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	spaces := map[string]string{}
	for _, e := range events {
		if e.Kind == StartElement {
			spaces[e.Name.Local] = e.Name.Space
		}
	}
	if spaces["a"] != "urn:outer" || spaces["b"] != "urn:inner" || spaces["c"] != "urn:outer" {
		t.Errorf("spaces = %v", spaces)
	}
}

func TestNamespaceUndeclare(t *testing.T) {
	doc := `<a xmlns="urn:x"><b xmlns=""/></a>`
	events, err := Record([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == StartElement && e.Name.Local == "b" && e.Name.Space != "" {
			t.Errorf("b space = %q, want empty after xmlns=\"\"", e.Name.Space)
		}
	}
}

func TestUndeclaredPrefixError(t *testing.T) {
	if err := Parse([]byte(`<x:a/>`), NopHandler{}); err == nil {
		t.Error("expected error for undeclared prefix on element")
	}
	if err := Parse([]byte(`<a x:y="1"/>`), NopHandler{}); err == nil {
		t.Error("expected error for undeclared prefix on attribute")
	}
}

func TestXMLPrefixPredeclared(t *testing.T) {
	events, err := Record([]byte(`<a xml:lang="en"/>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == StartElement {
			if e.Attrs[0].Name.Space != xmlNamespaceURI {
				t.Errorf("xml:lang space = %q", e.Attrs[0].Name.Space)
			}
		}
	}
}

// TestCoalesceText: adjacent character data, CDATA included, is one
// Characters event. Comments and processing instructions produce no
// event, but each ends the text run before it.
func TestCoalesceText(t *testing.T) {
	for _, c := range []struct {
		doc  string
		want []string
	}{
		{`<t>one<![CDATA[two]]>three</t>`, []string{"onetwothree"}},
		{`<a>x<!--c-->y<?p q?>z</a>`, []string{"x", "y", "z"}},
	} {
		events, err := Record([]byte(c.doc))
		if err != nil {
			t.Fatal(err)
		}
		var chars []string
		for _, e := range events {
			if e.Kind == Characters {
				chars = append(chars, e.Text)
			}
		}
		if len(events) != 4+len(c.want) || !slices.Equal(chars, c.want) {
			t.Errorf("%s: %d events, chars %q; want %d events, chars %q", c.doc, len(events), chars, 4+len(c.want), c.want)
		}
	}
}

func TestReplayEqualsOriginal(t *testing.T) {
	doc := `<a x="1"><b>text</b><c/><d>more &amp; stuff</d></a>`
	events, err := Record([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rec2 := &recorder{}
	if err := Replay(events, rec2); err != nil {
		t.Fatal(err)
	}
	replayed := rec2.events
	if len(replayed) != len(events) {
		t.Fatalf("replayed %d events, want %d", len(replayed), len(events))
	}
	for i := range events {
		if events[i].String() != replayed[i].String() {
			t.Errorf("event %d: %q != %q", i, events[i], replayed[i])
		}
	}
}

func TestWriterRoundTrip(t *testing.T) {
	doc := `<a xmlns="urn:x" k="v &quot;q&quot;"><b>text &amp; more</b><c></c></a>`
	events, err := Record([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := WriteSequence(events)
	if err != nil {
		t.Fatal(err)
	}
	// Reparse the writer output; the event streams must match.
	events2, err := Record([]byte(out))
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if len(events) != len(events2) {
		t.Fatalf("event counts differ: %d vs %d\nout=%s", len(events), len(events2), out)
	}
	for i := range events {
		if events[i].String() != events2[i].String() {
			t.Errorf("event %d: %q != %q", i, events[i], events2[i])
		}
	}
}

func TestWriterRejectsMismatchedEnd(t *testing.T) {
	w := NewWriter()
	_ = w.OnStartDocument()
	_ = w.OnStartElement(Name{Local: "a"}, nil)
	if err := w.OnEndElement(Name{Local: "b"}); err == nil {
		t.Error("expected mismatch error")
	}
	w2 := NewWriter()
	if err := w2.OnEndElement(Name{Local: "a"}); err == nil {
		t.Error("expected error for end without start")
	}
}

func TestWriterRejectsUnclosedDocument(t *testing.T) {
	w := NewWriter()
	_ = w.OnStartDocument()
	_ = w.OnStartElement(Name{Local: "a"}, nil)
	if err := w.OnEndDocument(); err == nil {
		t.Error("expected error for unclosed element at end of document")
	}
}

// TestRecorderSnapshotIndependence: a recording owns its attributes,
// so a later parse through the same pooled parser leaves it alone.
func TestRecorderSnapshotIndependence(t *testing.T) {
	snap, err := Record([]byte(`<a x="1"/>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Record([]byte(`<b y="2"/>`)); err != nil {
		t.Fatal(err)
	}
	if snap[1].Name.Local != "a" {
		t.Errorf("snapshot mutated: %+v", snap[1])
	}
	if snap[1].Attrs[0].Value != "1" {
		t.Errorf("snapshot attrs mutated: %+v", snap[1].Attrs)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: StartDocument}, "start document"},
		{Event{Kind: StartElement, Name: Name{Prefix: "s", Local: "Body"}}, "start element: s:Body"},
		{Event{Kind: Characters, Text: "hi"}, "characters: hi"},
		{Event{Kind: 6}, "EventKind(6)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

// TestEventKindValues pins the kinds' numeric values: they are the op
// bytes of a CompactSequence's binary form, which other processes hold.
func TestEventKindValues(t *testing.T) {
	got := []eventKind{StartDocument, EndDocument, StartElement, EndElement, Characters}
	if !slices.Equal(got, []eventKind{1, 2, 3, 4, 5}) {
		t.Errorf("kind values = %v, want [1 2 3 4 5]", got)
	}
}

// TestRoundTripProperty: generated element trees survive
// write → parse → record → write with identical output.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		events := genTree(seed)
		out1, err := WriteSequence(events)
		if err != nil {
			return false
		}
		events2, err := Record([]byte(out1))
		if err != nil {
			return false
		}
		out2, err := WriteSequence(events2)
		if err != nil {
			return false
		}
		return out1 == out2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// genTree deterministically builds a small random well-formed event
// sequence from a seed (a hand-rolled LCG keeps it dependency-free).
func genTree(seed uint32) []Event {
	state := seed | 1
	next := func(n uint32) uint32 {
		state = state*1664525 + 1013904223
		return (state >> 16) % n
	}
	events := []Event{{Kind: StartDocument}}
	var build func(depth int)
	count := 0
	build = func(depth int) {
		count++
		name := Name{Local: fmt.Sprintf("e%d", next(20))}
		var attrs []Attribute
		for i := uint32(0); i < next(3); i++ {
			attrs = append(attrs, Attribute{
				Name:  Name{Local: fmt.Sprintf("a%d", i)},
				Value: fmt.Sprintf("v%d", next(100)),
			})
		}
		events = append(events, Event{Kind: StartElement, Name: name, Attrs: attrs})
		if depth < 4 && count < 30 {
			kids := next(4)
			for i := uint32(0); i < kids; i++ {
				if next(2) == 0 {
					events = append(events, Event{Kind: Characters, Text: fmt.Sprintf("text-%d & <raw>", next(50))})
				} else {
					build(depth + 1)
				}
			}
		}
		events = append(events, Event{Kind: EndElement, Name: name})
	}
	build(0)
	events = append(events, Event{Kind: EndDocument})
	return events
}

func TestSequenceMemSize(t *testing.T) {
	events, err := Record([]byte(`<a><b>text</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	size := SequenceMemSize(events)
	if size <= 0 {
		t.Errorf("size = %d, want positive", size)
	}
	// More events must never report a smaller footprint.
	events2, err := Record([]byte(`<a><b>text</b><c>more text here</c></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if SequenceMemSize(events2) <= size {
		t.Error("larger document reported smaller footprint")
	}
}

func TestHandlerErrorPropagation(t *testing.T) {
	boom := fmt.Errorf("boom")
	h := &failingHandler{failOn: StartElement, err: boom}
	err := Parse([]byte(`<a/>`), h)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want boom", err)
	}
}

type failingHandler struct {
	NopHandler
	failOn eventKind
	err    error
}

func (f *failingHandler) OnStartElement(Name, []Attribute) error {
	if f.failOn == StartElement {
		return f.err
	}
	return nil
}
