package sax

import (
	"errors"
	"hash/maphash"
	"io"

	"repro/internal/xmltext"
)

// This file is the differential-serialization substrate (DESIGN.md
// §5i): SOAP responses for one operation share their entire markup —
// element structure, namespaces, attribute values — and differ only in
// character data. A Template captures that split once: the serialized
// document with every character-data span excised (the skeleton) plus
// the byte offsets where each span belongs (the slots). Re-serializing
// a same-shaped document is then a memcpy interleave of skeleton
// chunks and pre-escaped text values — no event dispatch, no escaping
// scan, no encoder.
//
// The byte-identity invariant: for any event sequence, splicing the
// sequence's escaped texts into the template built from it reproduces
// WriteSequence(events) exactly. The template recorder routes every
// non-text event through the same Writer that WriteSequence uses, and
// EscapeValue is the same escaper Writer.OnCharacters applies, so the
// only difference between a splice and a full serialization is where
// the bytes come from. FuzzTemplateSplice enforces this for arbitrary
// text mutations; TestTemplateSpliceEscaping pins the escaping
// boundary cases.

// Template is the reusable half of a differentially serialized
// document: the skeleton bytes and the splice offsets. Templates are
// immutable after BuildTemplate returns and safe for concurrent
// splicing; one template is typically shared by every cache entry of
// the same response shape.
type Template struct {
	skeleton string
	slots    []int // ascending byte offsets into skeleton, one per text node
}

// Slots returns the number of character-data splice points.
func (t *Template) Slots() int { return len(t.slots) }

// SkeletonSize returns the skeleton's byte length — the memory shared
// by every document spliced from this template.
func (t *Template) SkeletonSize() int { return len(t.skeleton) }

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
// the escaped character data (EscapeValue) of exactly Slots() text
// nodes, in document order — the caller owns that invariant; a length
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

// SpliceTo appends the rendered document to buf (which must have spare
// capacity for RenderedSize bytes to avoid growing) and writes the
// whole of buf — whatever prefix the caller put there, then the
// document — to w in one Write; it returns the bytes written. Used by
// the pooled-buffer replay paths.
//
//lint:hotpath
func (t *Template) SpliceTo(w io.Writer, buf []byte, values []string) (int64, error) {
	buf = t.AppendSplice(buf, values)
	n, err := w.Write(buf)
	return int64(n), err
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

// SpliceTexts collects the raw character data of events in document
// order — the per-document values for a template built from an
// equally shaped sequence. Far cheaper than BuildTemplate: no
// serialization, no escaping scan over the markup.
func SpliceTexts(events []Event) []string {
	n := 0
	for i := range events {
		if events[i].Kind == Characters {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	texts := make([]string, 0, n)
	for i := range events {
		if events[i].Kind == Characters {
			texts = append(texts, events[i].Text)
		}
	}
	return texts
}

// Shape hashing: two event sequences have the same shape exactly when
// they differ only in character data, i.e. they would produce the same
// skeleton. The hash folds every byte that lands in the skeleton —
// kinds, names, attribute names AND values (attribute values are
// markup here: SOAP arrayType counts, xsi types), comment and PI text —
// and only marks the presence of each Characters event. Two
// independently seeded 64-bit hashes give a 128-bit key; like the
// cache core's entry digest, collisions are assumed away rather than
// verified (a slot-count check catches gross mismatches).

var (
	shapeSeedLo = maphash.MakeSeed()
	shapeSeedHi = maphash.MakeSeed()
)

// ShapeHash returns the 128-bit shape key of an event sequence as two
// independently seeded 64-bit halves.
func ShapeHash(events []Event) (lo, hi uint64) {
	return shapeHash(shapeSeedLo, events), shapeHash(shapeSeedHi, events)
}

func shapeHash(seed maphash.Seed, events []Event) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	for i := range events {
		e := &events[i]
		_ = h.WriteByte(byte(e.Kind))
		switch e.Kind {
		case Characters:
			// Volatile: presence hashed (the kind byte above), text not.
		case StartElement:
			hashName(&h, e.Name)
			for _, a := range e.Attrs {
				hashName(&h, a.Name)
				_, _ = h.WriteString(a.Value)
				_ = h.WriteByte(0)
			}
			_ = h.WriteByte(1)
		case EndElement:
			hashName(&h, e.Name)
		case Comment, ProcInst:
			hashName(&h, e.Name)
			_, _ = h.WriteString(e.Text)
			_ = h.WriteByte(0)
		}
	}
	return h.Sum64()
}

// hashName folds a qualified name with separators so concatenation
// ambiguities ("ab"+"c" vs "a"+"bc") cannot collide.
func hashName(h *maphash.Hash, n Name) {
	_, _ = h.WriteString(n.Space)
	_ = h.WriteByte(0)
	_, _ = h.WriteString(n.Prefix)
	_ = h.WriteByte(0)
	_, _ = h.WriteString(n.Local)
	_ = h.WriteByte(0)
}
