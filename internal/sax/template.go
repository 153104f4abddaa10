package sax

import (
	"errors"

	"repro/internal/xmltext"
)

// This file is the event-side splice template: the document serialized
// from an event sequence with every character-data span excised (the
// skeleton), plus the byte offsets where each span belongs (the slots).
// Splicing the sequence's escaped texts back in reproduces
// WriteSequence(events) byte for byte: the recorder routes every
// non-text event through the same Writer, and EscapeValue is the
// escaper Writer.OnCharacters applies. FuzzTemplateSplice enforces it.
//
// Nothing outside this package's tests and the referee benchmark calls
// it any more: the xmltmpl representation keeps the origin's bytes on
// the envelope memo's skeleton (soap.Skeleton, DESIGN.md §5i). It stays
// only because the benchmark's ledger times it as its
// sax.template.splice_ns row; the benchmark's catch-up with the tree
// deletes it.

// Template is the reusable half of a differentially serialized
// document: the skeleton bytes and the splice offsets. Templates are
// immutable after BuildTemplate returns and safe for concurrent
// splicing; one template is typically shared by every cache entry of
// the same response shape.
type Template struct {
	skeleton string
	slots    []int // ascending byte offsets into skeleton, one per text node
}

// RenderedSize returns the byte length of the document produced by
// splicing values into the template.
func (t *Template) RenderedSize(values []string) int {
	n := len(t.skeleton)
	for _, v := range values {
		n += len(v)
	}
	return n
}

// errSpliceMismatch is the AppendSplice panic value; a static error so
// the hot splice path boxes nothing.
var errSpliceMismatch = errors.New("sax: template splice value count does not match slot count")

// AppendSplice appends the document rendered from the template and the
// given values to dst and returns the extended slice. values must be
// the escaped character data (EscapeValue) of exactly one text node per
// slot, in document order — the caller owns that invariant; a length
// mismatch panics rather than silently corrupting output.
//
//lint:hotpath
func (t *Template) AppendSplice(dst []byte, values []string) []byte {
	if len(values) != len(t.slots) {
		panic(errSpliceMismatch)
	}
	prev := 0
	for i, off := range t.slots {
		dst = append(dst, t.skeleton[prev:off]...)
		dst = append(dst, values[i]...)
		prev = off
	}
	return append(dst, t.skeleton[prev:]...)
}

// EscapeValue escapes raw character data for splicing — exactly the
// escaping Writer.OnCharacters applies, so spliced output stays
// byte-identical to a full serialization.
func EscapeValue(text string) string { return xmltext.EscapeTextString(text) }

// templateRecorder builds a template by replaying events through the
// ordinary Writer, except that character data is diverted: its offset
// becomes a slot and its text a value, leaving a gap in the skeleton.
type templateRecorder struct {
	w     *Writer
	slots []int
	texts []string
}

var _ Handler = (*templateRecorder)(nil)

func (r *templateRecorder) OnStartDocument() error { return r.w.OnStartDocument() }
func (r *templateRecorder) OnEndDocument() error   { return r.w.OnEndDocument() }
func (r *templateRecorder) OnStartElement(name Name, attrs []Attribute) error {
	return r.w.OnStartElement(name, attrs)
}
func (r *templateRecorder) OnEndElement(name Name) error { return r.w.OnEndElement(name) }
func (r *templateRecorder) OnComment(text string) error  { return r.w.OnComment(text) }
func (r *templateRecorder) OnProcInst(target, body string) error {
	return r.w.OnProcInst(target, body)
}

func (r *templateRecorder) OnCharacters(text string) error {
	r.slots = append(r.slots, r.w.Len())
	r.texts = append(r.texts, text)
	return nil
}

// BuildTemplate serializes events once, recording the splice template
// and returning this document's raw (unescaped) text values alongside:
// template plus EscapeValue-d texts reproduce WriteSequence(events)
// byte for byte.
func BuildTemplate(events []Event) (*Template, []string, error) {
	rec := &templateRecorder{w: NewWriter()}
	if err := Replay(events, rec); err != nil {
		return nil, nil, err
	}
	return &Template{skeleton: rec.w.String(), slots: rec.slots}, rec.texts, nil
}
