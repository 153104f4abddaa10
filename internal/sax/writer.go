package sax

import (
	"fmt"
	"strings"

	"repro/internal/xmltext"
)

// writer is a Handler that serializes the event stream it receives back
// into XML text. Feeding a parsed-then-recorded sequence through a
// writer reproduces a document equivalent to the original (namespace
// declarations are passed through as attributes, so prefixes are
// preserved).
type writer struct {
	b    strings.Builder
	open []string // lexical names of open elements, for validation
}

var _ Handler = (*writer)(nil)

// String returns the serialized document so far.
func (w *writer) String() string { return w.b.String() }

// OnStartDocument implements Handler.
func (w *writer) OnStartDocument() error { return nil }

// OnEndDocument implements Handler.
func (w *writer) OnEndDocument() error {
	if len(w.open) != 0 {
		return fmt.Errorf("sax: document ended with %d unclosed element(s); innermost <%s>", len(w.open), w.open[len(w.open)-1])
	}
	return nil
}

// OnStartElement implements Handler. It refuses, writing nothing, a
// name that is not a QName and an attribute value that is not legal
// XML text: no parser would read either back.
func (w *writer) OnStartElement(name Name, attrs []Attribute) error {
	if !isQName(name) {
		return fmt.Errorf("sax: element name %q is not a QName", name.String())
	}
	for _, a := range attrs {
		if !isQName(a.Name) || !xmltext.IsLegalText(a.Value) {
			return fmt.Errorf("sax: attribute %s=%q in <%s> is not writable XML", a.Name.String(), a.Value, name.String())
		}
	}
	lex := name.String()
	w.b.WriteByte('<')
	w.b.WriteString(lex)
	for _, a := range attrs {
		w.b.WriteByte(' ')
		w.b.WriteString(a.Name.String())
		w.b.WriteString(`="`)
		xmltext.EscapeAttr(&w.b, a.Value)
		w.b.WriteByte('"')
	}
	w.b.WriteByte('>')
	w.open = append(w.open, lex)
	return nil
}

// OnEndElement implements Handler.
func (w *writer) OnEndElement(name Name) error {
	lex := name.String()
	if len(w.open) == 0 {
		return fmt.Errorf("sax: end element </%s> with no open element", lex)
	}
	top := w.open[len(w.open)-1]
	if top != lex {
		return fmt.Errorf("sax: end element </%s> does not match open <%s>", lex, top)
	}
	w.open = w.open[:len(w.open)-1]
	w.b.WriteString("</")
	w.b.WriteString(lex)
	w.b.WriteByte('>')
	return nil
}

// OnCharacters implements Handler. Unlike names and attribute values,
// text outside the Char production is written, not refused: a
// template's splice writes its values unchecked, and the writer is
// the byte-identity oracle for that splice.
func (w *writer) OnCharacters(text string) error {
	xmltext.EscapeText(&w.b, text)
	return nil
}

// isQName reports whether n is a QName: a local name, and an optional
// prefix, that are XML names without colons (Namespaces in XML §3).
func isQName(n Name) bool {
	ncName := func(s string) bool { return xmltext.IsName(s) && !strings.Contains(s, ":") }
	return ncName(n.Local) && (n.Prefix == "" || ncName(n.Prefix))
}
