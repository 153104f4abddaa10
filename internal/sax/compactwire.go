package sax

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary form of a CompactSequence, for cache entries that cross a
// process boundary (the cluster tier). Layout, all integers unsigned
// varint (binary.AppendUvarint):
//
//	nops, ops bytes, nrefs, refs..., nstrings, (len, bytes)...
//
// The format is self-delimiting and versioned by the cluster frame
// header, not here; DecodeCompactSequence is total — any input either
// decodes or returns an error, never panics — because daemon payloads
// are untrusted relative to process memory safety.

// AppendBinary appends the sequence's binary form to dst and returns
// the extended slice.
func (c *CompactSequence) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c.ops)))
	dst = append(dst, c.ops...)
	dst = binary.AppendUvarint(dst, uint64(len(c.refs)))
	for _, r := range c.refs {
		dst = binary.AppendUvarint(dst, uint64(r))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.strings)))
	for _, s := range c.strings {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeCompactSequence parses a sequence from AppendBinary's output.
// The input slice is not retained; strings are copied out of it.
func DecodeCompactSequence(data []byte) (*CompactSequence, error) {
	var c CompactSequence
	nops, data, err := wireLen(data, len(data))
	if err != nil {
		return nil, fmt.Errorf("sax: compact decode: ops: %w", err)
	}
	if len(data) < nops {
		return nil, fmt.Errorf("sax: compact decode: ops truncated: need %d bytes, have %d", nops, len(data))
	}
	c.ops = append([]byte(nil), data[:nops]...)
	data = data[nops:]

	nrefs, data, err := wireLen(data, len(data))
	if err != nil {
		return nil, fmt.Errorf("sax: compact decode: refs: %w", err)
	}
	c.refs = make([]uint32, nrefs)
	for i := range c.refs {
		v, n := binary.Uvarint(data)
		if n <= 0 || v > math.MaxUint32 {
			return nil, fmt.Errorf("sax: compact decode: ref %d malformed", i)
		}
		c.refs[i] = uint32(v)
		data = data[n:]
	}

	nstrings, data, err := wireLen(data, len(data))
	if err != nil {
		return nil, fmt.Errorf("sax: compact decode: strings: %w", err)
	}
	c.strings = make([]string, 0, nstrings)
	for i := 0; i < nstrings; i++ {
		slen, rest, err := wireLen(data, len(data))
		if err != nil {
			return nil, fmt.Errorf("sax: compact decode: string %d: %w", i, err)
		}
		if len(rest) < slen {
			return nil, fmt.Errorf("sax: compact decode: string %d truncated", i)
		}
		c.strings = append(c.strings, string(rest[:slen]))
		data = rest[slen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("sax: compact decode: %d trailing bytes", len(data))
	}
	// Validate references now so Replay/Events never index out of
	// range on a corrupted payload.
	for i, r := range c.refs {
		if int(r) >= len(c.strings) {
			return nil, fmt.Errorf("sax: compact decode: ref %d = %d out of range (%d strings)", i, r, len(c.strings))
		}
	}
	if err := c.validateShape(); err != nil {
		return nil, err
	}
	return &c, nil
}

// wireLen reads one uvarint length and bounds it by max (a decoded
// count can never exceed the remaining input bytes, since every
// element is at least one byte).
func wireLen(data []byte, max int) (int, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("malformed length")
	}
	if v > uint64(max) {
		return 0, nil, fmt.Errorf("length %d exceeds remaining input %d", v, max)
	}
	return int(v), data[n:], nil
}

// validateShape walks the ops/refs streams once, checking that every
// event's refs are present and every op byte is a known event kind, so
// a later Replay cannot run off the refs array.
func (c *CompactSequence) validateShape() error {
	r := &compactReader{seq: c}
	for i, op := range c.ops {
		need := 0
		switch eventKind(op) {
		case StartDocument, EndDocument:
		case StartElement:
			if r.pos+4 > len(c.refs) {
				return fmt.Errorf("sax: compact decode: event %d: refs truncated", i)
			}
			nattrs := int(c.refs[r.pos+3])
			need = 4 + 4*nattrs
		case EndElement:
			need = 3
		case Characters:
			need = 1
		default:
			return fmt.Errorf("sax: compact decode: event %d: unknown kind %d", i, op)
		}
		if r.pos+need > len(c.refs) {
			return fmt.Errorf("sax: compact decode: event %d: refs truncated", i)
		}
		r.pos += need
	}
	if r.pos != len(c.refs) {
		return fmt.Errorf("sax: compact decode: %d unused refs", len(c.refs)-r.pos)
	}
	return nil
}
