// Package cluster is the shared L2 cache tier: a compact binary
// protocol (this file), consistent-hash routing across daemon
// addresses (ring.go), the client side implementing tier.Tier
// (client.go), and the daemon side serving any tier.Tier over a
// listener (server.go). cmd/wscached is the daemon binary; DESIGN.md
// §5h documents the wire format and the epoch-propagation rules.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// protocolVersion is the wire protocol version carried in every frame
// header. A peer speaking a different version is refused outright
// (ErrVersionSkew): the protocol has no negotiation, matching versions
// are a deployment invariant like the shared key-generation strategy.
// Version 2 added the mirrored (bootID, version) prefix to SYNC and
// BUMP, which lets the daemon answer with the epochs changed since.
const protocolVersion = 2

// defaultMaxPayload bounds a frame's payload when the configuration
// does not say otherwise. Response values are cache entries, which the
// cache budgets far below this; anything larger is a corrupt or
// hostile frame.
const defaultMaxPayload = 4 << 20

// headerSize is the fixed frame header: version (1), opcode (1),
// reserved (2, zero), payload length (4, big-endian).
const headerSize = 8

// opcode identifies a frame's meaning. Requests have the high bit
// clear, responses set; OpErr is the universal failure response.
type opcode byte

// Request opcodes.
const (
	opGet  opcode = 0x01 // payload: key hi, lo
	opPut  opcode = 0x02 // payload: key, ttl, rep, stamps, value
	opDel  opcode = 0x03 // payload: key hi, lo
	opBump opcode = 0x04 // payload: mirrored boot ID, version; keyspace list
	opSync opcode = 0x05 // payload: mirrored boot ID, version
	opPing opcode = 0x06 // payload: empty
)

// Response opcodes. Every response payload begins with the daemon's
// boot ID and epoch version (respMeta), the piggyback that drives
// cross-process invalidation: a client seeing a version ahead of its
// mirror syncs the epoch table, one seeing a changed boot ID knows the
// daemon restarted and lost state.
const (
	opValue opcode = 0x81 // OpGet hit: meta, ttl, rep, value
	opMiss  opcode = 0x82 // OpGet miss: meta
	opOK    opcode = 0x83 // OpPut/OpDel/OpPing: meta
	opTable opcode = 0x84 // OpSync/OpBump: meta, epochs changed since the mirror (or all)
	opErr   opcode = 0xFF // any request: error message
)

// valid reports whether op is a defined opcode.
func (o opcode) valid() bool {
	switch o {
	case opGet, opPut, opDel, opBump, opSync, opPing,
		opValue, opMiss, opOK, opTable, opErr:
		return true
	}
	return false
}

// Typed decode errors. Every malformed input maps onto one of these
// (possibly wrapped with position detail); the decoder never panics.
var (
	// errTruncated: the input ended inside a header or declared payload.
	errTruncated = errors.New("cluster: truncated frame")
	// errFrameTooLarge: the header declares a payload over the bound.
	errFrameTooLarge = errors.New("cluster: frame payload exceeds limit")
	// errVersionSkew: the peer speaks another protocol version.
	errVersionSkew = errors.New("cluster: protocol version mismatch")
	// errUnknownOpcode: the header names no defined opcode.
	errUnknownOpcode = errors.New("cluster: unknown opcode")
	// errMalformed: a payload's internal structure is inconsistent.
	errMalformed = errors.New("cluster: malformed payload")
)

// maxRetainedBuf caps the per-connection buffers kept between
// requests: a read or write buffer that one large frame grew past it
// is dropped once that request is done, so an idle connection never
// pins a large value or table.
const maxRetainedBuf = 64 << 10

// appendFrame appends a complete frame (header + payload) to dst.
func appendFrame(dst []byte, op opcode, payload []byte) []byte {
	dst = append(dst, protocolVersion, byte(op), 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// finishFrame completes a frame built in place: frame starts with the
// header appendFrame(dst[:0], 0, nil) wrote, and the payload was
// appended after it. It sets the header's opcode and payload length.
func finishFrame(frame []byte, op opcode) []byte {
	frame[1] = byte(op)
	binary.BigEndian.PutUint32(frame[4:headerSize], uint32(len(frame)-headerSize))
	return frame
}

// parseHeader validates a frame header and returns its opcode and
// declared payload length. A length over maxPayload is refused here,
// before anything is sized by it.
func parseHeader(h []byte, maxPayload int) (opcode, int, error) {
	if h[0] != protocolVersion {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", errVersionSkew, h[0], protocolVersion)
	}
	op := opcode(h[1])
	if !op.valid() {
		return 0, 0, fmt.Errorf("%w: %#x", errUnknownOpcode, h[1])
	}
	n := int(binary.BigEndian.Uint32(h[4:headerSize]))
	if n > maxPayload {
		return 0, 0, fmt.Errorf("%w: %d bytes declared, limit %d", errFrameTooLarge, n, maxPayload)
	}
	return op, n, nil
}

// writeFrame writes one frame to w. scratch, when non-nil, supplies a
// reusable buffer (per-connection, avoiding a fresh allocation per
// frame); one grown past maxRetainedBuf is not kept.
func writeFrame(w io.Writer, scratch *[]byte, op opcode, payload []byte) error {
	var buf []byte
	if scratch != nil {
		buf = (*scratch)[:0]
	}
	buf = appendFrame(buf, op, payload)
	if scratch != nil {
		*scratch = retain(buf)
	}
	_, err := w.Write(buf)
	return err
}

// retain returns buf emptied for reuse, or nil when it has grown past
// maxRetainedBuf.
func retain(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf[:0]
}

// readFrameInto reads one frame from br. The header is parsed in
// place in br's buffer. The payload is read into buf when buf has the
// capacity, and into a new slice of exactly the declared length
// otherwise: a caller that passes nil owns the payload outright, one
// that passes its previous payload back reuses that buffer and must not
// keep anything aliasing it past the next call. Header validation
// is parseHeader's: a declared length over maxPayload is refused
// before any payload read, so a corrupt peer cannot make the reader
// allocate more than maxPayload. io.EOF means the stream ended cleanly
// before a frame began.
func readFrameInto(br *bufio.Reader, maxPayload int, buf []byte) (opcode, []byte, error) {
	op, n, err := readHeader(br, maxPayload)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readPayload(br, buf, n)
	if err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}

// readResponse is readFrameInto for the client side of a connection,
// which knows from the opcode whether anything will keep the payload.
// An OpValue payload is read into a slice of its own: the value
// aliases it, and the L1 keeps that value (rep's DecodeWire). Every
// other response is decoded and dropped before the connection is
// released, so it is read into *buf, reused from response to response
// (and dropped once one large table grows it past maxRetainedBuf).
func readResponse(br *bufio.Reader, maxPayload int, buf *[]byte) (opcode, []byte, error) {
	op, n, err := readHeader(br, maxPayload)
	if err != nil {
		return 0, nil, err
	}
	if op == opValue {
		payload, err := readPayload(br, nil, n)
		return op, payload, err
	}
	payload, err := readPayload(br, *buf, n)
	if err != nil {
		return 0, nil, err
	}
	*buf = retain(payload)
	return op, payload, nil
}

// readHeader reads and validates one frame header from br (see
// readFrameInto).
func readHeader(br *bufio.Reader, maxPayload int) (opcode, int, error) {
	if maxPayload <= 0 {
		maxPayload = defaultMaxPayload
	}
	h, err := br.Peek(headerSize)
	if err != nil {
		if len(h) > 0 && errors.Is(err, io.EOF) {
			return 0, 0, fmt.Errorf("%w: header: %d of %d bytes", errTruncated, len(h), headerSize)
		}
		return 0, 0, err
	}
	op, n, err := parseHeader(h, maxPayload)
	if err != nil {
		return 0, 0, err
	}
	br.Discard(headerSize) // cannot fail: Peek buffered the header
	return op, n, nil
}

// readPayload reads an n-byte payload from br into buf, or into a new
// slice of exactly n bytes when buf is too small.
func readPayload(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: payload: short read", errTruncated)
		}
		return nil, err
	}
	return payload, nil
}
