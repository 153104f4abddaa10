package rep

import (
	"fmt"

	"repro/internal/sax"
)

// This file is the representation layer's second payoff (DESIGN.md
// §5h): representation chosen PER TIER. The in-process L1 keeps the
// full Table 3 menu including the copy/ref representations — payloads
// that are live object graphs and cannot leave the process. A remote
// tier can only hold bytes, so it admits the byte-oriented subset:
// the XML message, binary serialization, gob, and the compact SAX
// sequence, each able to flatten its payload to a wire form and back.

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

// wirePreference is the static priority among wire-capable
// representations — the Selector's order for tiers, as sectionSix is
// its order for L1 — used until the cost model has samples. The
// streaming representations lead — their wire form is the response
// itself, so a remote tier ships them with zero transcoding — but
// both are gated on Context.AcceptStream, so non-stream consumers
// start at binary serialization (compact payloads, cheap decode per
// Table 7), then the compact SAX sequence (no type limitation beyond
// message capture), then the raw XML message (universal), then gob
// (encoder overhead inverts the ordering at these message sizes; see
// the ablation benchmarks).
var wirePreference = []string{"raw", "xmltmpl", "binser", "compact-sax", "xml", "gob"}

// WireSpecs returns the registered wire-capable value specs, the
// static preference order first, any further registered WireStores in
// registration order after.
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
func (s *XMLMessageStore) EncodeWire(payload any) ([]byte, error) {
	doc, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: xml store: wire payload is %T", payload)
	}
	return doc, nil
}

// DecodeWire implements WireStore.
func (s *XMLMessageStore) DecodeWire(data []byte) (any, error) {
	return data, nil
}

// EncodeWire implements WireStore.
func (s *BinserStore) EncodeWire(payload any) ([]byte, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: binser store: wire payload is %T", payload)
	}
	return data, nil
}

// DecodeWire implements WireStore.
func (s *BinserStore) DecodeWire(data []byte) (any, error) {
	return data, nil
}

// EncodeWire implements WireStore.
func (s *GobStore) EncodeWire(payload any) ([]byte, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: gob store: wire payload is %T", payload)
	}
	return data, nil
}

// DecodeWire implements WireStore.
func (s *GobStore) DecodeWire(data []byte) (any, error) {
	return data, nil
}

// EncodeWire implements WireStore. One flag byte (multiref) precedes
// the sequence's binary form.
func (s *CompactSAXStore) EncodeWire(payload any) ([]byte, error) {
	p, ok := payload.(*compactSAXPayload)
	if !ok {
		return nil, fmt.Errorf("rep: compact sax store: wire payload is %T", payload)
	}
	flag := byte(0)
	if p.multiRef {
		flag = 1
	}
	return p.seq.AppendBinary([]byte{flag}), nil
}

// DecodeWire implements WireStore.
func (s *CompactSAXStore) DecodeWire(data []byte) (any, error) {
	if len(data) < 1 || data[0] > 1 {
		return nil, fmt.Errorf("rep: compact sax store: malformed wire payload")
	}
	seq, err := sax.DecodeCompactSequence(data[1:])
	if err != nil {
		return nil, fmt.Errorf("rep: compact sax store: %w", err)
	}
	return &compactSAXPayload{seq: seq, multiRef: data[0] == 1}, nil
}

var (
	_ WireStore = (*XMLMessageStore)(nil)
	_ WireStore = (*BinserStore)(nil)
	_ WireStore = (*GobStore)(nil)
	_ WireStore = (*CompactSAXStore)(nil)
)
