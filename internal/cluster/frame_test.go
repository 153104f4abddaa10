package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tier"
)

// encodePut is the put payload built the way the client built it
// before put frames were built in place: a fresh buffer of exactly the
// payload's size, the fields, then a copy of the value. It stays as
// the reference the in-place frame is compared with
// (checkPutFrame), and as the tests' way to hand-build a put.
func encodePut(bootID uint64, key tier.Key, e tier.Entry) ([]byte, error) {
	b := make([]byte, 0, 24+8+1+len(e.Rep)+2+len(e.Stamps)*16+len(e.Value))
	b = binary.BigEndian.AppendUint64(b, bootID)
	b = binary.BigEndian.AppendUint64(b, key.Hi)
	b = binary.BigEndian.AppendUint64(b, key.Lo)
	b = binary.BigEndian.AppendUint64(b, uint64(e.TTL.Nanoseconds()))
	var err error
	if b, err = appendStr8(b, e.Rep, "rep name"); err != nil {
		return nil, err
	}
	if len(e.Stamps) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d stamps", errMalformed, len(e.Stamps))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Stamps)))
	for _, st := range e.Stamps {
		if b, err = appendStr16(b, st.Keyspace, "keyspace"); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint64(b, st.Epoch)
	}
	return append(b, e.Value...), nil
}

// checkPutFrame fails unless the put frame the client builds in place
// is appendFrame(opPut, encodePut(...)) byte for byte, whatever the
// scratch buffer it is built over held before.
func checkPutFrame(t *testing.T, bootID uint64, key tier.Key, e tier.Entry) {
	t.Helper()
	p, err := encodePut(bootID, key, e)
	if err != nil {
		t.Fatalf("encodePut: %v", err)
	}
	want := appendFrame(nil, opPut, p)
	scratch := bytes.Repeat([]byte{0xA5}, 64)
	q := request{op: opPut, bootID: bootID, key: key, entry: &e}
	got, err := q.frame(scratch)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("in-place put frame (err %v):\n got %x\nwant %x", err, got, want)
	}
}

// typedDecodeErr reports whether err is one of the package's sentinel
// decode errors — the contract every malformed input must satisfy.
func typedDecodeErr(err error) bool {
	return errors.Is(err, errTruncated) || errors.Is(err, errFrameTooLarge) ||
		errors.Is(err, errVersionSkew) || errors.Is(err, errUnknownOpcode) ||
		errors.Is(err, errMalformed)
}

// readFrame reads one frame from r into a payload the caller owns, the
// way the client reads a response. r is wrapped in a bufio.Reader that
// may read past the frame, so a test reads one frame per stream.
func readFrame(r io.Reader, maxPayload int) (opcode, []byte, error) {
	return readFrameInto(bufio.NewReader(r), maxPayload, nil)
}

// encodeTable encodes a whole table response from a map.
func encodeTable(m respMeta, epochs map[string]uint64) ([]byte, error) {
	t := newTableEncoder(nil)
	for ks, epoch := range epochs {
		t.add(ks, epoch)
	}
	return t.finish(m)
}

// decodeFrame decodes one frame from the front of b, in memory: the
// reference readFrameInto is checked against. It returns the opcode,
// its payload (aliasing b), and the remaining bytes. maxPayload ≤ 0
// means DefaultMaxPayload.
func decodeFrame(b []byte, maxPayload int) (op opcode, payload, rest []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = defaultMaxPayload
	}
	if len(b) < headerSize {
		return 0, nil, b, fmt.Errorf("%w: %d header bytes", errTruncated, len(b))
	}
	op, n, err := parseHeader(b, maxPayload)
	if err != nil {
		return 0, nil, b, err
	}
	if len(b) < headerSize+n {
		return 0, nil, b, fmt.Errorf("%w: payload declares %d bytes, %d available", errTruncated, n, len(b)-headerSize)
	}
	return op, b[headerSize : headerSize+n], b[headerSize+n:], nil
}

// TestDecodeFrameMalformed is the malformed-frame table: each corrupt
// input must yield its specific typed error, never a panic.
func TestDecodeFrameMalformed(t *testing.T) {
	valid := appendFrame(nil, opGet, encodeKey(tier.Key{Hi: 1, Lo: 2}))
	cases := []struct {
		name string
		in   []byte
		max  int
		want error
	}{
		{"empty", nil, 0, errTruncated},
		{"truncated header", valid[:5], 0, errTruncated},
		{"header only, payload declared", valid[:headerSize], 0, errTruncated},
		{"truncated payload", valid[:len(valid)-1], 0, errTruncated},
		{"version zero", append([]byte{0}, valid[1:]...), 0, errVersionSkew},
		{"version future", append([]byte{protocolVersion + 1}, valid[1:]...), 0, errVersionSkew},
		{"version past", append([]byte{protocolVersion - 1}, valid[1:]...), 0, errVersionSkew},
		{"unknown opcode", append([]byte{protocolVersion, 0x7E}, valid[2:]...), 0, errUnknownOpcode},
		{"oversized length", appendFrame(nil, opGet, make([]byte, 100)), 64, errFrameTooLarge},
		{
			"length overflowing input",
			func() []byte {
				b := append([]byte(nil), valid...)
				binary.BigEndian.PutUint32(b[4:8], 1<<20)
				return b
			}(),
			0,
			errTruncated,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := decodeFrame(tc.in, tc.max)
			if !errors.Is(err, tc.want) {
				t.Fatalf("decodeFrame error = %v, want %v", err, tc.want)
			}
			// The stream reader must agree with the in-memory decoder,
			// except that zero bytes is a clean peer close there (io.EOF),
			// not a truncation.
			_, _, rerr := readFrame(bytes.NewReader(tc.in), tc.max)
			if !typedDecodeErr(rerr) && !(len(tc.in) == 0 && errors.Is(rerr, io.EOF)) {
				t.Fatalf("readFrame error = %v, want a typed decode error", rerr)
			}
		})
	}
}

// TestReadFrameAgreesWithDecodeFrame: a valid frame round-trips through
// both decoders identically.
func TestReadFrameAgreesWithDecodeFrame(t *testing.T) {
	payload := []byte("hello frame")
	frame := appendFrame(nil, opPut, payload)

	op, p, rest, err := decodeFrame(frame, 0)
	if err != nil || op != opPut || !bytes.Equal(p, payload) || len(rest) != 0 {
		t.Fatalf("decodeFrame = %v %q rest=%d err=%v", op, p, len(rest), err)
	}
	op, p, err = readFrame(bytes.NewReader(frame), 0)
	if err != nil || op != opPut || !bytes.Equal(p, payload) {
		t.Fatalf("readFrame = %v %q err=%v", op, p, err)
	}
}

// requestSeeds are SYNC and BUMP frames in the current layouts: a
// mirror prefix, and for BUMP the keyspace list after it.
func requestSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	mirror := respMeta{bootID: 0x1234, version: 99}
	seeds := [][]byte{
		appendFrame(nil, opSync, encodeMetaOnly(mirror)),
		appendFrame(nil, opSync, encodeMetaOnly(respMeta{})),
	}
	for _, names := range [][]string{nil, {"items", "item:item-7"}} {
		p, err := encodeBump(mirror, names)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, appendFrame(nil, opBump, p))
	}
	return seeds
}

// reencodeRequest decodes a SYNC or BUMP payload and encodes it again.
func reencodeRequest(op opcode, payload []byte) ([]byte, error) {
	if op == opSync {
		m, err := decodeMetaOnly(payload)
		return encodeMetaOnly(m), err
	}
	m, names, err := decodeBump(payload)
	if err != nil {
		return nil, err
	}
	return encodeBump(m, names)
}

// TestRequestSeedsRoundTrip: every request seed the fuzzer starts from
// is a valid frame whose payload decodes and re-encodes to the same
// bytes.
func TestRequestSeedsRoundTrip(t *testing.T) {
	for _, seed := range requestSeeds(t) {
		op, payload, rest, err := decodeFrame(seed, 0)
		if err != nil || len(rest) != 0 {
			t.Fatalf("seed %x: err=%v rest=%d", seed, err, len(rest))
		}
		again, err := reencodeRequest(op, payload)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("%#x seed: re-encoded %x, want %x (err %v)", byte(op), again, payload, err)
		}
	}
}

// FuzzFrameRoundTrip drives both directions: arbitrary bytes through
// the decoders must never panic and must fail with a typed error, and
// any payload framed by AppendFrame must decode back intact. The same
// bytes read as one stream through the daemon's buffered reader must
// yield decodeFrame's frame sequence (streamFrames). The
// message-level decoders ride along on the same corpus — they are what
// a hostile payload reaches next.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, opGet, encodeKey(tier.Key{Hi: 7, Lo: 9})))
	f.Add(appendFrame(nil, opPing, nil))
	f.Add([]byte{protocolVersion, byte(opErr), 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	if p, err := encodePut(3, tier.Key{Hi: 1, Lo: 2}, tier.Entry{
		Rep: "binser", Value: []byte("v"), TTL: time.Second,
		Stamps: []tier.Stamp{{Keyspace: "items", Epoch: 4}},
	}); err == nil {
		f.Add(appendFrame(nil, opPut, p))
	}
	if p, err := encodeTable(respMeta{bootID: 1, version: 2}, map[string]uint64{"items": 3}); err == nil {
		f.Add(appendFrame(nil, opTable, p))
	}
	for _, seed := range requestSeeds(f) {
		f.Add(seed)
	}
	// Several frames back to back, the way a connection carries them:
	// the reused buffer grows, then serves a smaller payload.
	f.Add(bytes.Join([][]byte{
		appendFrame(nil, opPut, bytes.Repeat([]byte{'v'}, 300)),
		appendFrame(nil, opGet, encodeKey(tier.Key{Hi: 1})),
		appendFrame(nil, opPing, nil),
		appendFrame(nil, opGet, encodeKey(tier.Key{Lo: 2}))[:12],
	}, nil))

	// Responses as the client reads them: a value between meta-only
	// frames, the later one large enough to overwrite the value if the
	// value aliased the connection's reused buffer.
	value, err := appendValue(nil, respMeta{bootID: 1, version: 2}, tier.Entry{Rep: "binser", Value: []byte("kept"), TTL: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Join([][]byte{
		appendFrame(nil, opMiss, encodeMetaOnly(respMeta{bootID: 1, version: 2})),
		appendFrame(nil, opValue, value),
		appendFrame(nil, opErr, encodeErr(strings.Repeat("e", 64))),
		appendFrame(nil, opOK, encodeMetaOnly(respMeta{bootID: 1, version: 3})),
	}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: hostile bytes. No panics; errors are typed.
		op, payload, rest, err := decodeFrame(data, 1<<16)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("decodeFrame: untyped error %v", err)
			}
		} else {
			if len(payload)+len(rest)+headerSize != len(data) {
				t.Fatalf("decodeFrame: consumed %d+%d of %d", len(payload), len(rest), len(data))
			}
			if !op.valid() {
				t.Fatalf("decodeFrame accepted opcode %#x", byte(op))
			}
		}
		streamFrames(t, data, 1<<16)

		// The message decoders must be equally total.
		if bootID, key, e, err := decodePut(data, new(interner)); err != nil && !errors.Is(err, errMalformed) {
			t.Fatalf("decodePut: untyped error %v", err)
		} else if err == nil {
			checkPutFrame(t, bootID, key, e)
		}
		if _, err := decodeKey(data); err != nil && !errors.Is(err, errMalformed) {
			t.Fatalf("decodeKey: untyped error %v", err)
		}
		if _, _, err := decodeValue(data, new(interner)); err != nil && !errors.Is(err, errMalformed) {
			t.Fatalf("decodeValue: untyped error %v", err)
		}
		if _, _, err := decodeTable(data); err != nil && !errors.Is(err, errMalformed) {
			t.Fatalf("decodeTable: untyped error %v", err)
		}
		if _, _, err := decodeBump(data); err != nil && !errors.Is(err, errMalformed) {
			t.Fatalf("decodeBump: untyped error %v", err)
		}

		// The request layouts are canonical: a SYNC or BUMP payload that
		// decodes re-encodes to the same bytes.
		if err == nil && (op == opSync || op == opBump) {
			if again, derr := reencodeRequest(op, payload); derr == nil && !bytes.Equal(again, payload) {
				t.Fatalf("%#x payload re-encodes differently:\n got %x\nwant %x", byte(op), again, payload)
			}
		}

		// Direction 2: anything we frame comes back intact.
		frame := appendFrame(nil, opPut, data)
		op2, p2, rest2, err := decodeFrame(frame, len(data)+1)
		if err != nil || op2 != opPut || !bytes.Equal(p2, data) || len(rest2) != 0 {
			t.Fatalf("round trip: op=%v err=%v", op2, err)
		}
	})
}

// streamFrames reads data as one stream the way the daemon does —
// through a bufio.Reader, into a payload buffer reused from frame to
// frame — and then the way the client does (readResponse), and
// requires exactly decodeFrame's frame sequence both times, then the
// typed error decodeFrame stops at (io.EOF when the stream ends between
// frames). No payload buffer may exceed maxPayload.
func streamFrames(t *testing.T, data []byte, maxPayload int) {
	t.Helper()
	var in []byte
	streamWith(t, data, maxPayload, "daemon", func(br *bufio.Reader) (opcode, []byte, error) {
		op, payload, err := readFrameInto(br, maxPayload, in)
		in = retain(payload)
		return op, payload, err
	})
	var buf []byte
	streamWith(t, data, maxPayload, "client", func(br *bufio.Reader) (opcode, []byte, error) {
		op, payload, err := readResponse(br, maxPayload, &buf)
		if err != nil {
			return op, payload, err
		}
		if _, derr := decodeResponse(op, payload, new(interner)); derr != nil && !errors.Is(derr, errMalformed) {
			t.Fatalf("decodeResponse %#x: untyped error %v", byte(op), derr)
		}
		if op == opValue {
			// The L1 keeps a value's bytes: scribbling over the reused
			// buffer must not reach them (streamWith compares them with
			// decodeFrame's payload after this returns).
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = 0xA5
			}
		}
		return op, payload, nil
	})
}

// streamWith reads data as one stream through read, checking each
// frame against decodeFrame.
func streamWith(t *testing.T, data []byte, maxPayload int, side string, read func(*bufio.Reader) (opcode, []byte, error)) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	for rest, i := data, 0; ; i++ {
		wantOp, wantPayload, next, wantErr := decodeFrame(rest, maxPayload)
		op, payload, err := read(br)
		if wantErr != nil {
			if len(rest) == 0 {
				if err != io.EOF {
					t.Fatalf("%s frame %d: stream read at a clean end = %v, want io.EOF", side, i, err)
				}
				return
			}
			for _, sentinel := range []error{errTruncated, errFrameTooLarge, errVersionSkew, errUnknownOpcode} {
				if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
					t.Fatalf("%s frame %d: stream read error %v, decodeFrame error %v", side, i, err, wantErr)
				}
			}
			return
		}
		if err != nil || op != wantOp || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s frame %d: stream read %#x %x (err %v), decodeFrame %#x %x", side, i, byte(op), payload, err, byte(wantOp), wantPayload)
		}
		if cap(payload) > maxPayload {
			t.Fatalf("%s frame %d: payload buffer of %d bytes, bound %d", side, i, cap(payload), maxPayload)
		}
		rest = next
	}
}

// TestMessageRoundTrips covers each payload codec.
func TestMessageRoundTrips(t *testing.T) {
	key := tier.Key{Hi: 0xDEADBEEF, Lo: 0xFEEDFACE}

	t.Run("key", func(t *testing.T) {
		got, err := decodeKey(encodeKey(key))
		if err != nil || got != key {
			t.Fatalf("got %+v err=%v", got, err)
		}
	})

	t.Run("put", func(t *testing.T) {
		e := tier.Entry{
			Rep:   "compact-sax",
			Value: []byte("payload bytes"),
			TTL:   90 * time.Second,
			Stamps: []tier.Stamp{
				{Keyspace: "items", Epoch: 12},
				{Keyspace: "users/7", Epoch: 0},
			},
		}
		p, err := encodePut(42, key, e)
		if err != nil {
			t.Fatal(err)
		}
		bootID, k, got, err := decodePut(p, new(interner))
		if err != nil {
			t.Fatal(err)
		}
		if bootID != 42 || k != key || !reflect.DeepEqual(got, e) {
			t.Fatalf("got boot=%d key=%+v entry=%+v", bootID, k, got)
		}
	})

	t.Run("put empty", func(t *testing.T) {
		p, err := encodePut(1, key, tier.Entry{Rep: "xml"})
		if err != nil {
			t.Fatal(err)
		}
		_, _, got, err := decodePut(p, new(interner))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rep != "xml" || len(got.Stamps) != 0 || len(got.Value) != 0 {
			t.Fatalf("got %+v", got)
		}
	})

	t.Run("value", func(t *testing.T) {
		m := respMeta{bootID: 5, version: 77}
		e := tier.Entry{Rep: "binser", Value: []byte{1, 2, 3}, TTL: time.Minute}
		p, err := appendValue(nil, m, e)
		if err != nil {
			t.Fatal(err)
		}
		gm, ge, err := decodeValue(p, new(interner))
		if err != nil || gm != m {
			t.Fatalf("meta %+v err=%v", gm, err)
		}
		if ge.Rep != e.Rep || !bytes.Equal(ge.Value, e.Value) || ge.TTL != e.TTL {
			t.Fatalf("entry %+v", ge)
		}
	})

	t.Run("meta only", func(t *testing.T) {
		m := respMeta{bootID: 9, version: 3}
		got, err := decodeMetaOnly(encodeMetaOnly(m))
		if err != nil || got != m {
			t.Fatalf("got %+v err=%v", got, err)
		}
		if _, err := decodeMetaOnly(append(encodeMetaOnly(m), 0)); !errors.Is(err, errMalformed) {
			t.Fatalf("trailing byte accepted: %v", err)
		}
	})

	t.Run("bump", func(t *testing.T) {
		mirror := respMeta{bootID: 6, version: 40}
		want := []string{"items", "users/1", ""}
		p, err := encodeBump(mirror, want)
		if err != nil {
			t.Fatal(err)
		}
		gm, got, err := decodeBump(p)
		if err != nil || gm != mirror || !reflect.DeepEqual(got, want) {
			t.Fatalf("mirror=%+v got %v err=%v", gm, got, err)
		}
		if _, _, err := decodeBump(p[:15]); !errors.Is(err, errMalformed) {
			t.Fatalf("bump without a whole mirror prefix: %v", err)
		}
	})

	t.Run("table", func(t *testing.T) {
		m := respMeta{bootID: 8, version: 21}
		want := map[string]uint64{"items": 4, "users/2": 9, "orders": 0}
		p, err := encodeTable(m, want)
		if err != nil {
			t.Fatal(err)
		}
		gm, got, err := decodeTable(p)
		if err != nil || gm != m || !reflect.DeepEqual(got, want) {
			t.Fatalf("meta=%+v table=%v err=%v", gm, got, err)
		}
	})

	t.Run("table refuses absurd count", func(t *testing.T) {
		p := appendMeta(nil, respMeta{})
		p = binary.BigEndian.AppendUint32(p, 1<<30)
		if _, _, err := decodeTable(p); !errors.Is(err, errMalformed) {
			t.Fatalf("absurd count: %v", err)
		}
	})

	t.Run("put refuses absurd stamp count", func(t *testing.T) {
		p, err := encodePut(1, key, tier.Entry{Rep: "r", Value: []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		at := 8 + 16 + 8 + 1 + 1 // boot id, key, ttl, rep name
		binary.BigEndian.PutUint16(p[at:], 0xFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err = decodePut(p, new(interner))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errMalformed) {
			t.Fatalf("65535 stamps in %d bytes: %v", len(p), err)
		}
		// 65535 stamps would be 1.5 MB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("refusing 65535 stamps in %d bytes allocated %d B", len(p), grew)
		}
	})

	t.Run("err", func(t *testing.T) {
		msg, err := decodeErr(encodeErr("boom"))
		if err != nil || msg != "boom" {
			t.Fatalf("got %q err=%v", msg, err)
		}
		long := strings.Repeat("x", 0x12345)
		msg, err = decodeErr(encodeErr(long))
		if err != nil || len(msg) != 0xFFFF {
			t.Fatalf("long message: len=%d err=%v", len(msg), err)
		}
	})

	t.Run("oversized strings refused at encode", func(t *testing.T) {
		for _, e := range []tier.Entry{
			{Rep: strings.Repeat("r", 300)},
			{Rep: "r", Stamps: []tier.Stamp{{Keyspace: strings.Repeat("k", 1<<17)}}},
			{Rep: "r", Stamps: make([]tier.Stamp, 1<<16)},
		} {
			q := request{op: opPut, key: key, entry: &e}
			if _, err := q.frame(nil); !errors.Is(err, errMalformed) {
				t.Fatalf("put of %d-byte rep name, %d stamps: %v", len(e.Rep), len(e.Stamps), err)
			}
		}
		if _, err := encodeBump(respMeta{}, []string{strings.Repeat("k", 1<<17)}); !errors.Is(err, errMalformed) {
			t.Fatalf("128KiB keyspace: %v", err)
		}
	})
}
