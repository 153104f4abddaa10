package rep

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/soap"
)

// FuzzDecodeWire feeds arbitrary bytes to every registered wire
// representation the two ways a client reads a value another process
// put in the shared tier: Selector.LoadWire, once for a stream consumer
// and once for an object consumer (a promotion), and DecodeWire then
// Load (the wire payload an L1 keeps when its own store declines the
// result). Hostile or corrupt bytes must come back as errors, never
// panics, each wrapping ErrCorruptWire or being a decoded SOAP fault;
// a LoadWire failure always wraps ErrCorruptWire and leaves the
// context as it was. A result that is a byte stream must replay
// without error, only a stream consumer may get one, and the raw
// representation must replay its input exactly.
func FuzzDecodeWire(f *testing.F) {
	fx := newFixture(f)
	reg := NewRegistry(fx.reg, fx.codec)
	ictx := fx.ictx(f, "doGetItem", &item{Name: "alpha", Score: 1.5, Tags: []string{"a", "b"}})
	ictx.AcceptStream = true
	for _, spec := range reg.WireSpecs() {
		payload, _, err := spec.Store.Store(ictx)
		if err != nil {
			f.Fatalf("%s: Store: %v", spec.Name, err)
		}
		data, err := spec.Store.(WireStore).EncodeWire(payload)
		if err != nil {
			f.Fatalf("%s: EncodeWire: %v", spec.Name, err)
		}
		f.Add(append([]byte(nil), data...))
	}
	fault, err := fx.codec.EncodeFault(&soap.Fault{Code: "soap:Server", String: "boom"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fault)
	f.Add([]byte{})
	f.Add([]byte{1})
	for _, data := range retiredEventPayloads {
		f.Add(data)
	}

	sel := NewStaticSelector(reg)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range reg.WireSpecs() {
			for _, stream := range []bool{false, true} {
				// LoadWire, like DecodeWire, may keep its input.
				ictx := fx.reqCtx("doGetItem")
				ictx.AcceptStream = stream
				if err := sel.LoadWire(spec.Name, append([]byte(nil), data...), ictx); err != nil {
					if !errors.Is(err, ErrCorruptWire) {
						t.Fatalf("%s: LoadWire (stream %v): %v does not wrap ErrCorruptWire", spec.Name, stream, err)
					}
					if ictx.Result != nil || ictx.ResponseXML != nil || ictx.ResponseEvents != nil {
						t.Fatalf("%s: LoadWire (stream %v) failed and changed the context", spec.Name, stream)
					}
					continue
				}
				if _, ok := ictx.Result.(Streamed); ok && !stream {
					t.Fatalf("%s: LoadWire gave an object consumer a %T", spec.Name, ictx.Result)
				}
				checkReplay(t, spec.Name, ictx.Result, data)
			}

			payload, err := spec.Store.(WireStore).DecodeWire(append([]byte(nil), data...))
			if err != nil {
				checkCorrupt(t, spec.Name, "DecodeWire", err)
				continue
			}
			v, err := spec.Store.Load(payload)
			if err != nil {
				checkCorrupt(t, spec.Name, "Load", err)
				continue
			}
			checkReplay(t, spec.Name, v, data)
		}
	})
}

// checkCorrupt fails t unless err wraps ErrCorruptWire or is a decoded
// SOAP fault.
func checkCorrupt(t *testing.T, rep, stage string, err error) {
	t.Helper()
	var fault *soap.Fault
	if !errors.Is(err, ErrCorruptWire) && !errors.As(err, &fault) {
		t.Fatalf("%s: %s: error %q (%T) is neither ErrCorruptWire nor a fault", rep, stage, err, err)
	}
}

// checkReplay fails t unless a result that is a byte stream replays
// without error, and a raw one replays the wire bytes exactly.
func checkReplay(t *testing.T, rep string, v any, data []byte) {
	t.Helper()
	st, ok := v.(Streamed)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if n, err := st.WriteTo(&buf); err != nil || n != int64(st.Len()) || !bytes.Equal(buf.Bytes(), st.Bytes()) {
		t.Fatalf("%s: replay of %d bytes: n=%d err=%v", rep, st.Len(), n, err)
	}
	if rep == "raw" && !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("raw: replay %q of wire bytes %q", buf.Bytes(), data)
	}
}
