package sax

import (
	"fmt"
	"strings"

	"repro/internal/xmltext"
)

// Writer is a Handler that serializes the event stream it receives back
// into XML text. Feeding a parsed-then-recorded sequence through a
// Writer reproduces a document equivalent to the original (namespace
// declarations are passed through as attributes, so prefixes are
// preserved).
type Writer struct {
	b        strings.Builder
	open     []string // lexical names of open elements, for validation
	declared bool
	started  bool
}

var _ Handler = (*Writer)(nil)

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteXMLDecl emits an XML declaration. Call before the first event.
func (w *Writer) WriteXMLDecl() {
	if !w.declared && !w.started {
		w.b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
		w.b.WriteByte('\n')
		w.declared = true
	}
}

// String returns the serialized document so far.
func (w *Writer) String() string { return w.b.String() }

// Len returns the number of bytes serialized so far.
func (w *Writer) Len() int { return w.b.Len() }

// Bytes returns the serialized document so far as a byte slice.
func (w *Writer) Bytes() []byte { return []byte(w.b.String()) }

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.b.Reset()
	w.open = w.open[:0]
	w.declared = false
	w.started = false
}

// OnStartDocument implements Handler.
func (w *Writer) OnStartDocument() error {
	w.started = true
	return nil
}

// OnEndDocument implements Handler.
func (w *Writer) OnEndDocument() error {
	if len(w.open) != 0 {
		return fmt.Errorf("sax: document ended with %d unclosed element(s); innermost <%s>", len(w.open), w.open[len(w.open)-1])
	}
	return nil
}

// OnStartElement implements Handler. It refuses, writing nothing, a
// name that is not a QName and an attribute value that is not legal
// XML text: no parser would read either back.
func (w *Writer) OnStartElement(name Name, attrs []Attribute) error {
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
func (w *Writer) OnEndElement(name Name) error {
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
// template's splice writes its values unchecked, and WriteSequence is
// the byte-identity oracle for that splice.
func (w *Writer) OnCharacters(text string) error {
	xmltext.EscapeText(&w.b, text)
	return nil
}

// isQName reports whether n is a QName: a local name, and an optional
// prefix, that are XML names without colons (Namespaces in XML §3).
func isQName(n Name) bool {
	ncName := func(s string) bool { return xmltext.IsName(s) && !strings.Contains(s, ":") }
	return ncName(n.Local) && (n.Prefix == "" || ncName(n.Prefix))
}

// WriteSequence serializes a recorded event sequence to XML text.
func WriteSequence(events []Event) (string, error) {
	w := NewWriter()
	if err := Replay(events, w); err != nil {
		return "", err
	}
	return w.String(), nil
}
