package rep

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/sax"
)

// This file is the representation layer's second payoff (DESIGN.md
// §5h): representation chosen PER TIER. The in-process L1 keeps the
// full Table 3 menu including the copy/ref representations — payloads
// that are live object graphs and cannot leave the process. A remote
// tier can only hold bytes, so it admits the byte-oriented subset:
// the streamed response, the XML message, binary serialization and the
// compact SAX sequence, each able to flatten its payload to a wire form
// and back. gob and the xmltmpl template are wire-capable too, and a
// peer's entry under either still decodes, but no order selects them.
//
// The wire form is a transport form, not an L1 one. A tier hit is
// materialized from it (Selector.LoadWire) into what the pivot would
// have handed the cache — the result, and the envelope or events the
// bytes carry — and filled into L1 through the Section 6 walk, so the
// in-process menu holds for promoted entries too.

// WireStore is the optional ValueStore extension a representation
// implements when its payloads can cross a process boundary.
// EncodeWire flattens a payload produced by Store into bytes;
// DecodeWire reconstructs a payload that the same store's Load
// accepts. DecodeWire may retain the input slice (callers hand over
// ownership); EncodeWire's output may alias the payload, so callers
// must only write it, never mutate.
type WireStore interface {
	ValueStore
	EncodeWire(payload any) ([]byte, error)
	DecodeWire(data []byte) (any, error)
}

// wireAppender is the append form a WireStore may add: AppendWire
// appends the wire encoding of the invocation's result to dst, with
// the same errors Store would return, so a tier write makes no
// payload of its own. Selector.AppendWire prefers it.
type wireAppender interface {
	AppendWire(dst []byte, ictx *client.Context) ([]byte, error)
}

// wireLoader is the read side of wireAppender, for a WireStore whose
// bytes are the result itself rather than an envelope: LoadWire
// decodes them straight to the result, with the errors Load would
// return, where DecodeWire and Load would first box the bytes as a
// payload. Selector.LoadWire prefers it.
type wireLoader interface {
	LoadWire(data []byte) (any, error)
}

// ErrCorruptWire reports a payload whose bytes do not decode back to a
// result — above all a remote tier entry, which another process wrote.
// Every wire decode failure wraps it, and so does Selector.LoadWire; a
// decoded SOAP fault is not corrupt and is returned as itself.
//
//lint:ignore api FuzzDecodeWire and core's TestTierCorruptEntryIsAMiss match it
var ErrCorruptWire = errors.New("rep: corrupt wire payload")

// corrupt wraps a decode failure of the named store in ErrCorruptWire.
func corrupt(store string, err error) error {
	return fmt.Errorf("rep: %s: %w: %w", store, ErrCorruptWire, err)
}

// appendWire appends the invocation's result in ws's wire encoding to
// dst: through the append form when ws has one, else Store, EncodeWire
// and a copy.
func appendWire(ws WireStore, dst []byte, ictx *client.Context) ([]byte, error) {
	if a, ok := ws.(wireAppender); ok {
		return a.AppendWire(dst, ictx)
	}
	payload, _, err := ws.Store(ictx)
	if err != nil {
		return dst, err
	}
	data, err := ws.EncodeWire(payload)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

// wirePreference is the static priority among wire-capable
// representations — the Selector's order for tiers, as sectionSix is
// its order for L1. The streamed response leads — its wire form is the
// response itself, so a remote tier ships it with zero transcoding —
// but it is gated on Context.AcceptStream, so non-stream consumers
// start at binary serialization (compact payloads, cheap decode per
// Table 7), then the compact SAX sequence (no type limitation beyond
// message capture), then the raw XML message (universal). Two
// wire-capable stores are not in the order. xmltmpl holds exactly when
// raw does, and raw's Store never declines then, so a slot after it
// would never be reached; it is chosen only by name. gob holds exactly
// what binser holds (the bean predicate), at a higher per-message cost
// (the ledger's rep.store.gob.* rows).
var wirePreference = []string{"raw", "binser", "compact-sax", "xml"}

// envelopeWire names the wire representations whose bytes are the
// response envelope itself: raw replay, the rendered template and the
// XML message. Selector.LoadWire hands them on as ResponseXML.
var envelopeWire = []string{"raw", "xmltmpl", "xml"}

// WireSpecs returns every registered wire-capable value spec, the
// static preference order first, any further registered WireStores
// (gob and xmltmpl) in registration order after.
func (r *Registry) WireSpecs() []*ValueSpec {
	var out []*ValueSpec
	seen := make(map[string]bool)
	for _, spec := range append(r.ordered(wirePreference), r.Values()...) {
		if _, ok := spec.Store.(WireStore); ok && !seen[spec.Name] {
			out = append(out, spec)
			seen[spec.Name] = true
		}
	}
	return out
}

// --- WireStore implementations -------------------------------------
//
// The three representations whose payloads already ARE the wire bytes
// (XML message, binser, gob) encode by identity; the compact SAX
// sequence flattens its interned tables through sax.AppendBinary.

// EncodeWire implements WireStore.
func (s *xmlMessageStore) EncodeWire(payload any) ([]byte, error) {
	doc, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: xml store: wire payload is %T", payload)
	}
	return doc, nil
}

// DecodeWire implements WireStore.
func (s *xmlMessageStore) DecodeWire(data []byte) (any, error) {
	return data, nil
}

// AppendWire implements wireAppender: the binser encoding, appended
// in place of Store's exact-size copy.
func (s *binserStore) AppendWire(dst []byte, ictx *client.Context) ([]byte, error) {
	out, err := s.codec.Append(dst, ictx.Result)
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrNotApplicable, err)
	}
	return out, nil
}

// EncodeWire implements WireStore.
func (s *binserStore) EncodeWire(payload any) ([]byte, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: binser store: wire payload is %T", payload)
	}
	return data, nil
}

// DecodeWire implements WireStore.
func (s *binserStore) DecodeWire(data []byte) (any, error) {
	return data, nil
}

// LoadWire implements wireLoader: the binser decoding of data.
func (s *binserStore) LoadWire(data []byte) (any, error) {
	v, err := s.codec.Unmarshal(data)
	if err != nil {
		return nil, corrupt("binser store", err)
	}
	return v, nil
}

// EncodeWire implements WireStore.
func (s *gobStore) EncodeWire(payload any) ([]byte, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: gob store: wire payload is %T", payload)
	}
	return data, nil
}

// DecodeWire implements WireStore.
func (s *gobStore) DecodeWire(data []byte) (any, error) {
	return data, nil
}

// EncodeWire implements WireStore. One flag byte (multiref) precedes
// the sequence's binary form.
func (s *compactSAXStore) EncodeWire(payload any) ([]byte, error) {
	p, ok := payload.(*eventPayload)
	if !ok {
		return nil, fmt.Errorf("rep: compact sax store: wire payload is %T", payload)
	}
	seq, ok := p.src.(*sax.CompactSequence)
	if !ok {
		return nil, fmt.Errorf("rep: compact sax store: wire payload holds %T", p.src)
	}
	flag := byte(0)
	if p.multiRef {
		flag = 1
	}
	return seq.AppendBinary([]byte{flag}), nil
}

// DecodeWire implements WireStore.
func (s *compactSAXStore) DecodeWire(data []byte) (any, error) {
	if len(data) < 1 || data[0] > 1 {
		return nil, corrupt("compact sax store", errBadFlag)
	}
	seq, err := sax.DecodeCompactSequence(data[1:])
	if err != nil {
		return nil, corrupt("compact sax store", err)
	}
	return &eventPayload{src: seq, multiRef: data[0] == 1}, nil
}

var errBadFlag = errors.New("the multiref flag byte is missing or not 0 or 1")

var (
	_ WireStore    = (*xmlMessageStore)(nil)
	_ WireStore    = (*binserStore)(nil)
	_ wireAppender = (*binserStore)(nil)
	_ wireLoader   = (*binserStore)(nil)
	_ WireStore    = (*gobStore)(nil)
	_ WireStore    = (*compactSAXStore)(nil)
)
