// Package xmlescape is the golden fixture for the xmlescape analyzer:
// raw and escaped writes into a hand-rolled XML writer.
package xmlescape

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmltext"
)

// Writer assembles XML text by the repository's convention: markup and
// escaped character data concatenated into the b builder.
type Writer struct {
	b strings.Builder
}

// WriteText escapes character data properly.
func (w *Writer) WriteText(text string) {
	xmltext.EscapeText(&w.b, text)
}

// WriteTextString routes through the string-returning helper.
func (w *Writer) WriteTextString(text string) {
	w.b.WriteString(xmltext.EscapeTextString(text))
}

// WriteRaw leaks unescaped data into the document.
func (w *Writer) WriteRaw(text string) {
	w.b.WriteString(text) // want "unescaped string written into XML output"
}

// WriteFmt formats straight into the buffer.
func (w *Writer) WriteFmt(tag, text string) {
	fmt.Fprintf(&w.b, "<%s>%s</%s>", tag, text, tag) // want "cannot escape"
}

// StartElement writes trusted markup names and literals.
func (w *Writer) StartElement(name, prefix string) {
	w.b.WriteString("<")
	if prefix != "" {
		w.b.WriteString(prefix)
		w.b.WriteString(":")
	}
	w.b.WriteString(name)
	w.b.WriteString(">")
}

// WriteCount renders a number, which cannot carry metacharacters.
func (w *Writer) WriteCount(n int) {
	w.b.WriteString(strconv.Itoa(n))
}

// WriteVia stages a clean value through a local before writing it.
func (w *Writer) WriteVia(text string) {
	escaped := xmltext.EscapeTextString(text)
	out := escaped
	w.b.WriteString(out)
}

// WriteDirty stages a dirty value through a local.
func (w *Writer) WriteDirty(text string) {
	out := text + "!"
	w.b.WriteString(out) // want "unescaped string written into XML output"
}

// Encoder is the same convention over a bytes.Buffer, the form a pooled
// encoder appends into.
type Encoder struct {
	b bytes.Buffer
}

// WriteText escapes character data through the shared helper.
func (e *Encoder) WriteText(text string) {
	xmltext.EscapeText(&e.b, text)
}

// WriteCount appends a number in the buffer's free space.
func (e *Encoder) WriteCount(n int) {
	e.b.Write(strconv.AppendInt(e.b.AvailableBuffer(), int64(n), 10))
}

// WriteRaw leaks unescaped data into the document.
func (e *Encoder) WriteRaw(text string) {
	e.b.WriteString(text) // want "unescaped string written into XML output"
}

// WriteRawBytes leaks unescaped bytes into the document.
func (e *Encoder) WriteRawBytes(text string) {
	e.b.Write([]byte(text)) // want "unescaped string written into XML output"
}

// WriteFmt formats straight into the buffer.
func (e *Encoder) WriteFmt(text string) {
	fmt.Fprint(&e.b, text) // want "cannot escape"
}
