package rep

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/sax"
)

// This file holds the non-default representations for the server
// response cache: implementations of server.BodyStore, the server-side
// analog of ValueStore. The contract is declared once, by its consumer
// (package server, which must stay independent of the client stack and
// so cannot be imported from here); these types satisfy it
// structurally, and the places that hand them to the server cache
// (cmd/dummygoogle, the server tests) are the compile-time check.

// CompactBodyStore parses the encoded body into a SAX event sequence
// and keeps it in the string-interned compact form; a hit re-renders
// the envelope from the events. SOAP responses are highly repetitive,
// so resident size drops sharply in exchange for a serialization pass
// per hit — the server-side version of the SAX-versus-XML trade the
// client cache measures in Table 7.
type CompactBodyStore struct{}

// NewCompactBodyStore returns the compact-events body representation.
func NewCompactBodyStore() CompactBodyStore { return CompactBodyStore{} }

// Name implements server.BodyStore.
func (CompactBodyStore) Name() string { return "SAX events (compact)" }

// Store implements server.BodyStore.
func (CompactBodyStore) Store(body []byte) (any, int, error) {
	events, err := sax.Record(body)
	if err != nil {
		return nil, 0, fmt.Errorf("rep: compact body store: %w", err)
	}
	seq := sax.Compact(events)
	return seq, seq.MemSize(), nil
}

// Load implements server.BodyStore.
func (CompactBodyStore) Load(payload any) ([]byte, error) {
	seq, ok := payload.(*sax.CompactSequence)
	if !ok {
		return nil, fmt.Errorf("rep: compact body store: payload is %T", payload)
	}
	doc, err := sax.WriteSequence(seq.Events())
	if err != nil {
		return nil, fmt.Errorf("rep: compact body store: %w", err)
	}
	return []byte(doc), nil
}

// WriteBody implements server.BodyStore: the events are rendered in
// full before the first byte goes out, so a payload that no longer
// renders fails with nothing written.
func (s CompactBodyStore) WriteBody(payload any, w io.Writer) (int64, error) {
	doc, err := s.Load(payload)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(doc)
	return int64(n), err
}

// TemplateBodyStore is the server-side differential-serialization
// representation (DESIGN.md §5i): bodies of the same response shape
// share one interned splice skeleton, each entry holds only its escaped
// text values, and a hit streams by memcpy interleave through a pooled
// buffer. Compared with CompactBodyStore it trades slightly more
// resident memory for a hit path with no event replay and no escaping
// scan.
type TemplateBodyStore struct {
	tc *templateCache
}

// splicedBody pairs a spliced document with the verbatim prologue (XML
// declaration plus trailing whitespace) of the original body. The sax
// event model does not carry the declaration — parse skips it, the
// writer never emits one — so the prologue is kept here to make a
// served hit byte-identical to the handler's response.
type splicedBody struct {
	prologue string
	doc      *SplicedResponse
}

// xmlPrologue returns the leading XML declaration (and any whitespace
// separating it from the root element) of body, or "" when there is
// none.
func xmlPrologue(body []byte) string {
	if !bytes.HasPrefix(body, []byte("<?xml")) {
		return ""
	}
	end := bytes.Index(body, []byte("?>"))
	if end < 0 {
		return ""
	}
	end += 2
	for end < len(body) {
		switch body[end] {
		case ' ', '\t', '\r', '\n':
			end++
			continue
		}
		break
	}
	return string(body[:end])
}

// NewTemplateBodyStore returns the splice-template body representation.
func NewTemplateBodyStore() *TemplateBodyStore {
	return &TemplateBodyStore{tc: newTemplateCache()}
}

// Name implements server.BodyStore.
func (s *TemplateBodyStore) Name() string { return "XML template (splice)" }

// Store implements server.BodyStore.
func (s *TemplateBodyStore) Store(body []byte) (any, int, error) {
	events, err := sax.Record(body)
	if err != nil {
		return nil, 0, fmt.Errorf("rep: template body store: %w", err)
	}
	p, resident, err := s.tc.spliceFor(events)
	if err != nil {
		return nil, 0, fmt.Errorf("rep: template body store: %w", err)
	}
	prologue := xmlPrologue(body)
	return &splicedBody{prologue: prologue, doc: p}, resident + len(prologue), nil
}

// Load implements server.BodyStore.
func (s *TemplateBodyStore) Load(payload any) ([]byte, error) {
	p, ok := payload.(*splicedBody)
	if !ok {
		return nil, fmt.Errorf("rep: template body store: payload is %T", payload)
	}
	out := make([]byte, 0, len(p.prologue)+p.doc.Len())
	out = append(out, p.prologue...)
	return p.doc.tpl.AppendSplice(out, p.doc.values), nil
}

// WriteBody implements server.BodyStore: prologue then spliced document,
// through the shared splice buffer pool.
//
//lint:hotpath
func (s *TemplateBodyStore) WriteBody(payload any, w io.Writer) (int64, error) {
	p, ok := payload.(*splicedBody)
	if !ok {
		return 0, errSplicedPayload
	}
	var written int64
	if p.prologue != "" {
		n, err := io.WriteString(w, p.prologue)
		written = int64(n)
		if err != nil {
			return written, err
		}
	}
	n, err := p.doc.WriteTo(w)
	return written + n, err
}

// Stats snapshots the store's template interner.
func (s *TemplateBodyStore) Stats() TemplateStats { return s.tc.stats() }
