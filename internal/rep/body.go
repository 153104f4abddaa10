package rep

import (
	"fmt"
	"io"

	"repro/internal/client"
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

// StreamBodyStore adapts a streaming representation — any ValueStore
// whose hits are Streamed, i.e. "raw" and "xmltmpl" — to
// server.BodyStore, so the server cache replays bodies with the very
// code the client cache replays responses with. The body is stored as
// the captured envelope of a stream-accepting invocation; a hit is the
// Streamed's WriteTo (ServeHTTP) or Bytes (Handle).
type StreamBodyStore struct {
	vs ValueStore
}

// NewStreamBodyStore returns the server-side form of vs.
func NewStreamBodyStore(vs ValueStore) StreamBodyStore { return StreamBodyStore{vs: vs} }

// Name implements server.BodyStore.
func (s StreamBodyStore) Name() string { return s.vs.Name() }

// Store implements server.BodyStore.
func (s StreamBodyStore) Store(body []byte) (any, int, error) {
	return s.vs.Store(&client.Context{ResponseXML: body, AcceptStream: true})
}

// streamed loads the payload's Streamed.
func (s StreamBodyStore) streamed(payload any) (Streamed, error) {
	v, err := s.vs.Load(payload)
	if err != nil {
		return nil, err
	}
	st, ok := v.(Streamed)
	if !ok {
		return nil, fmt.Errorf("rep: stream body store: %s loaded %T, not a byte stream", s.vs.Name(), v)
	}
	return st, nil
}

// Load implements server.BodyStore.
func (s StreamBodyStore) Load(payload any) ([]byte, error) {
	st, err := s.streamed(payload)
	if err != nil {
		return nil, err
	}
	return st.Bytes(), nil
}

// WriteBody implements server.BodyStore. A payload that does not load
// fails with nothing written.
//
//lint:hotpath
func (s StreamBodyStore) WriteBody(payload any, w io.Writer) (int64, error) {
	st, err := s.streamed(payload)
	if err != nil {
		return 0, err
	}
	return st.WriteTo(w)
}
