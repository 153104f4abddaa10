package sax

import (
	"reflect"
	"testing"
)

const wireTestDoc = `<?xml version="1.0"?><env:Envelope xmlns:env="http://schemas.xmlsoap.org/soap/envelope/"><env:Body><r kind="string">hello &amp; goodbye</r><!-- c --></env:Body></env:Envelope>`

// TestCompactBinaryRoundTrip proves AppendBinary/DecodeCompactSequence
// is lossless: the decoded sequence replays to the identical event
// stream.
func TestCompactBinaryRoundTrip(t *testing.T) {
	events, err := Record([]byte(wireTestDoc))
	if err != nil {
		t.Fatal(err)
	}
	seq := Compact(events)
	wire := seq.AppendBinary(nil)
	back, err := DecodeCompactSequence(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Events(), back.Events()) {
		t.Fatal("round-tripped sequence replays differently")
	}
}

// TestCompactBinaryRejectsCorruption truncates and flips the encoding
// at every byte position; decoding must fail or succeed cleanly, never
// panic or produce an out-of-range sequence.
func TestCompactBinaryRejectsCorruption(t *testing.T) {
	events, err := Record([]byte(wireTestDoc))
	if err != nil {
		t.Fatal(err)
	}
	wire := Compact(events).AppendBinary(nil)
	for i := 0; i <= len(wire); i++ {
		if c, err := DecodeCompactSequence(wire[:i]); err == nil && i < len(wire) {
			// A strict prefix that still decodes must at least be
			// internally consistent.
			_ = c.Events()
		}
	}
	for i := range wire {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0xff
		if c, err := DecodeCompactSequence(mut); err == nil {
			// Accepted mutations must still replay safely.
			_ = c.Events()
		}
	}
}

// TestCompactBinaryRefusesRetiredOps: op bytes 6 and 7 were the
// comment and processing-instruction events, which the event model no
// longer has. A payload holding either, shaped as those events were
// encoded (one text ref, or a target and a body ref), is refused.
func TestCompactBinaryRefusesRetiredOps(t *testing.T) {
	for _, c := range []CompactSequence{
		{ops: []byte{byte(StartDocument), 6, byte(EndDocument)}, refs: []uint32{1}, strings: []string{"", "c"}},
		{ops: []byte{byte(StartDocument), 7, byte(EndDocument)}, refs: []uint32{1, 2}, strings: []string{"", "t", "b"}},
	} {
		if _, err := DecodeCompactSequence(c.AppendBinary(nil)); err == nil {
			t.Errorf("ops %v decoded", c.ops)
		}
	}
}
