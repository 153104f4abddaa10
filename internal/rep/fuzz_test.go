package rep

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/soap"
)

// FuzzDecodeWire feeds arbitrary bytes to every registered wire
// store's DecodeWire and then Load — what a client does with a value
// another process put in the shared tier. Hostile or corrupt bytes
// must come back as errors, never panics, and each error must name the
// layer that refused them (a "rep: " or "soap: " message), or be a
// decoded SOAP fault. A payload that loads as a byte stream must replay
// without error, and the raw representation must replay its input
// exactly.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range reg.WireSpecs() {
			// DecodeWire may keep its input, as the L1 does a frame.
			payload, err := spec.Store.(WireStore).DecodeWire(append([]byte(nil), data...))
			if err != nil {
				checkLayerErr(t, spec.Name, "DecodeWire", err)
				continue
			}
			v, err := spec.Store.Load(payload)
			if err != nil {
				checkLayerErr(t, spec.Name, "Load", err)
				continue
			}
			st, ok := v.(Streamed)
			if !ok {
				continue
			}
			var buf bytes.Buffer
			if n, err := st.WriteTo(&buf); err != nil || n != int64(st.Len()) || !bytes.Equal(buf.Bytes(), st.Bytes()) {
				t.Fatalf("%s: replay of %d bytes: n=%d err=%v", spec.Name, st.Len(), n, err)
			}
			if spec.Name == "raw" && !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("raw: replay %q of wire bytes %q", buf.Bytes(), data)
			}
		}
	})
}

// checkLayerErr fails t unless err names the layer that refused the
// bytes or is a decoded SOAP fault.
func checkLayerErr(t *testing.T, rep, stage string, err error) {
	t.Helper()
	var fault *soap.Fault
	if errors.As(err, &fault) {
		return
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "rep: ") && !strings.HasPrefix(msg, "soap: ") {
		t.Fatalf("%s: %s: error %q (%T) names no layer", rep, stage, msg, err)
	}
}
