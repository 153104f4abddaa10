package sax_test

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/sax"
	"repro/internal/xmltext"
)

// FuzzWriterVsStdlib writes one element, with one attribute and text
// content, from fuzzed names and strings: the Writer either refuses the
// events or emits a document encoding/xml reads back, in Strict mode,
// as exactly the events it was given. Text outside the Char production
// is skipped: the Writer writes it unchecked, as OnCharacters says,
// and FuzzTemplateSplice's "\x00\x01\x02" seed holds it to that. Run
// longer with:
//
//	go test -fuzz '^FuzzWriterVsStdlib$' ./internal/sax
func FuzzWriterVsStdlib(f *testing.F) {
	for _, s := range [][5]string{
		{"", "a", "b", "v", "text"},
		{"ns", "Envelope", "xmlns:ns", "urn:x", ""},
		{"", "a", "b", "tab\there\r\nline", "cr\r\nlf\rend\n"},
		{"", "a", "b", "\x01", "x"},
		{"", "日本語", "属性", "値", "テキスト"},
		{"", "a", "b", "\xff", "y"},
		{"", "a", "b", `"'<&>]]>`, "<&>]]>"},
		{"a b", "c", "d:e:f", "", "z"},
		{"", "a:b", ":c", "v", "t"},
		{"xml", "1a", "-b", "v", "t"},
		{"", "ₓ", "b", "v", "t"},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, prefix, local, attr, value, text string) {
		if !xmltext.IsLegalText(text) {
			t.Skip()
		}
		name := sax.Name{Prefix: prefix, Local: local}
		attrs := []sax.Attribute{{Name: sax.Name{Local: attr}, Value: value}}
		w := sax.NewWriter()
		for _, write := range []func() error{
			w.OnStartDocument,
			func() error { return w.OnStartElement(name, attrs) },
			func() error { return w.OnCharacters(text) },
			func() error { return w.OnEndElement(name) },
			w.OnEndDocument,
		} {
			if write() != nil {
				return // refused
			}
		}
		want := []string{fmt.Sprintf("start %s %s=%q", name, attr, value)}
		if text != "" {
			want = append(want, fmt.Sprintf("text %q", text))
		}
		want = append(want, "end "+name.String())
		got, err := stdlibEvents(w.String())
		if _, name, ok := strings.Cut(fmt.Sprint(err), "invalid XML name: "); ok && strings.ContainsFunc(name, isNonASCII) {
			return // XML 1.0 §2.3: a 5th edition name encoding/xml's 4th edition classes reject
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("wrote %q; encoding/xml read %q, %v; want %q", w.String(), got, err, want)
		}
	})
}

// stdlibEvents reads doc with encoding/xml's RawToken in Strict mode.
func stdlibEvents(doc string) ([]string, error) {
	d := xml.NewDecoder(strings.NewReader(doc))
	d.Strict = true
	var evs []string
	for {
		tok, err := d.RawToken()
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			ev := "start " + rawName(tok.Name)
			for _, a := range tok.Attr {
				ev += fmt.Sprintf(" %s=%q", rawName(a.Name), a.Value)
			}
			evs = append(evs, ev)
		case xml.EndElement:
			evs = append(evs, "end "+rawName(tok.Name))
		case xml.CharData:
			evs = append(evs, fmt.Sprintf("text %q", tok))
		default:
			evs = append(evs, fmt.Sprintf("%T", tok))
		}
	}
}

func isNonASCII(r rune) bool { return r >= utf8.RuneSelf }

func rawName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}
