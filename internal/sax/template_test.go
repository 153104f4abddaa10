package sax

import (
	"strings"
	"testing"
)

// tmplFixtureEvents returns a small SOAP-shaped event sequence with
// three text nodes, built by hand so tests control the texts exactly.
func tmplFixtureEvents(texts ...string) []Event {
	env := Name{Space: "http://schemas.xmlsoap.org/soap/envelope/", Prefix: "soapenv", Local: "Envelope"}
	body := Name{Space: env.Space, Prefix: "soapenv", Local: "Body"}
	item := Name{Local: "item"}
	events := []Event{
		{Kind: StartDocument},
		{Kind: StartElement, Name: env, Attrs: []Attribute{
			{Name: Name{Prefix: "xmlns", Local: "soapenv"}, Value: env.Space},
			{Name: Name{Prefix: "xmlns", Local: "xsi"}, Value: "http://www.w3.org/2001/XMLSchema-instance"},
		}},
		{Kind: StartElement, Name: body},
	}
	for _, t := range texts {
		events = append(events,
			Event{Kind: StartElement, Name: item, Attrs: []Attribute{
				{Name: Name{Prefix: "xsi", Local: "type", Space: "http://www.w3.org/2001/XMLSchema-instance"}, Value: "xsd:string"},
			}},
			Event{Kind: Characters, Text: t},
			Event{Kind: EndElement, Name: item},
		)
	}
	events = append(events,
		Event{Kind: EndElement, Name: body},
		Event{Kind: EndElement, Name: env},
		Event{Kind: EndDocument},
	)
	return events
}

// mutateTexts returns a copy of events with its Characters texts
// replaced in order (extra texts ignored, missing texts keep the
// original).
func mutateTexts(events []Event, texts []string) []Event {
	out := make([]Event, len(events))
	copy(out, events)
	j := 0
	for i := range out {
		if out[i].Kind == Characters && j < len(texts) {
			out[i].Text = texts[j]
			j++
		}
	}
	return out
}

// spliceFor renders mutated via the template built from base,
// exercising the differential path: template from one document, values
// from another of the same shape. It also holds RenderedSize to the
// length of what it renders.
func spliceFor(t testing.TB, base, mutated []Event) []byte {
	t.Helper()
	tpl, _, err := BuildTemplate(base)
	if err != nil {
		t.Fatal(err)
	}
	_, texts, err := BuildTemplate(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != len(tpl.slots) {
		t.Fatalf("splice texts %d != slots %d", len(texts), len(tpl.slots))
	}
	values := make([]string, len(texts))
	for i, raw := range texts {
		values[i] = EscapeValue(raw)
	}
	out := tpl.AppendSplice(nil, values)
	if n := tpl.RenderedSize(values); n != len(out) {
		t.Fatalf("RenderedSize = %d, want %d", n, len(out))
	}
	return out
}

func TestTemplateSpliceMatchesFullSerialization(t *testing.T) {
	base := tmplFixtureEvents("one", "two", "three")
	for _, texts := range [][]string{
		{"one", "two", "three"},
		{"", "", ""},
		{"changed", "values", "here"},
		{"much longer value than the original one was", "x", "y"},
	} {
		mutated := mutateTexts(base, texts)
		want, err := WriteSequence(mutated)
		if err != nil {
			t.Fatal(err)
		}
		got := spliceFor(t, base, mutated)
		if string(got) != want {
			t.Errorf("texts %q: spliced output diverges from full serialization\n got: %s\nwant: %s",
				texts, got, want)
		}
	}
}

// TestTemplateSpliceEscaping pins the escaping boundary: spliced text
// must pass through the same xmlescape-checked escaper as a full
// serialization, for every class of hostile input — markup characters,
// the CDATA terminator, control characters, and multi-byte UTF-8
// sequences whose escape expansion shifts every later splice offset.
func TestTemplateSpliceEscaping(t *testing.T) {
	base := tmplFixtureEvents("a", "b", "c")
	cases := []struct {
		name  string
		texts []string
	}{
		{"angle brackets", []string{"<script>", "a<b", ">"}},
		{"ampersand", []string{"x&y", "&amp;", "&"}},
		{"cdata terminator", []string{"]]>", "a]]>b", "]]]]>>"}},
		{"quotes", []string{`"quoted"`, "'single'", `a"b'c`}},
		{"control chars", []string{"line\nbreak", "tab\there", "cr\rhere"}},
		{"multibyte utf8", []string{"héllo wörld", "日本語テキスト", "emoji \U0001F600 mix"}},
		{"multibyte straddling escapes", []string{"é<é", "日&本", "\U0001F600>\U0001F600"}},
		{"empty and spaces", []string{"", " ", "  \t "}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := mutateTexts(base, tc.texts)
			want, err := WriteSequence(mutated)
			if err != nil {
				t.Fatal(err)
			}
			got := spliceFor(t, base, mutated)
			if string(got) != want {
				t.Errorf("spliced output diverges from full serialization\n got: %s\nwant: %s", got, want)
			}
			// The escaped document must never contain an unescaped
			// splice: raw '<' or '&' from the values would be markup
			// injection.
			for _, frag := range []string{"<script>", "]]>", "x&y"} {
				if strings.Contains(string(got), frag) {
					t.Errorf("unescaped fragment %q leaked into spliced output: %s", frag, got)
				}
			}
		})
	}
}

func TestTemplateSpliceRoundTripsThroughParser(t *testing.T) {
	base := tmplFixtureEvents("a", "b", "c")
	mutated := mutateTexts(base, []string{"<&>", "]]>", "é日\U0001F600"})
	doc := spliceFor(t, base, mutated)
	events, err := Record(doc)
	if err != nil {
		t.Fatalf("spliced document does not re-parse: %v\n%s", err, doc)
	}
	_, got, err := BuildTemplate(events)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<&>", "]]>", "é日\U0001F600"}
	if len(got) != len(want) {
		t.Fatalf("re-parsed %d texts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("text %d round-tripped to %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendSpliceSlotMismatchPanics(t *testing.T) {
	tpl, _, err := BuildTemplate(tmplFixtureEvents("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendSplice with wrong value count must panic, not corrupt output")
		}
	}()
	tpl.AppendSplice(nil, []string{"only-one"})
}

// FuzzTemplateSplice is the byte-identity oracle: for arbitrary text
// mutations of a fixed shape, template-spliced output must equal the
// full re-serialization of the mutated sequence.
func FuzzTemplateSplice(f *testing.F) {
	f.Add("one", "two", "three")
	f.Add("", "", "")
	f.Add("<&>", "]]>", "\x00\x01\x02")
	f.Add("é", "日本語", "\U0001F600")
	f.Add("a\rb", "c\nd", "e\te")
	f.Add(strings.Repeat("x", 4096), "&"+strings.Repeat("<", 100), "]]>"+strings.Repeat("]", 50))
	base := tmplFixtureEvents("seed-a", "seed-b", "seed-c")
	tpl, _, err := BuildTemplate(base)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		mutated := mutateTexts(base, []string{a, b, c})
		want, err := WriteSequence(mutated)
		if err != nil {
			t.Fatal(err)
		}
		values := []string{EscapeValue(a), EscapeValue(b), EscapeValue(c)}
		got := tpl.AppendSplice(nil, values)
		if string(got) != want {
			t.Errorf("spliced output diverges from full serialization for (%q, %q, %q)\n got: %s\nwant: %s",
				a, b, c, got, want)
		}
	})
}
