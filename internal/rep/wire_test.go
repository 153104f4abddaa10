package rep

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// wireFixtureRegistry builds the full representation registry over the
// test types.
func wireFixtureRegistry(t *testing.T) (*Registry, *fixture) {
	t.Helper()
	f := newFixture(t)
	return NewRegistry(f.reg, f.codec), f
}

// TestWireStoresRoundTrip proves every wire-capable representation
// survives the process boundary: Store → EncodeWire → DecodeWire →
// Load reproduces the result.
func TestWireStoresRoundTrip(t *testing.T) {
	reg, f := wireFixtureRegistry(t)
	want := &item{Name: "alpha", Score: 1.5, Tags: []string{"a", "b"}}
	ictx := f.ictx(t, "doGetItem", want)

	specs := reg.WireSpecs()
	if len(specs) != 6 {
		t.Fatalf("WireSpecs: got %d specs, want 6 (raw, xmltmpl, binser, compact-sax, xml, gob)", len(specs))
	}
	for _, spec := range specs {
		ws := spec.Store.(WireStore)
		payload, _, err := spec.Store.Store(ictx)
		if err != nil {
			t.Fatalf("%s: Store: %v", spec.Name, err)
		}
		data, err := ws.EncodeWire(payload)
		if err != nil {
			t.Fatalf("%s: EncodeWire: %v", spec.Name, err)
		}
		// Simulate the remote side: fresh buffer, fresh payload.
		back, err := ws.DecodeWire(append([]byte(nil), data...))
		if err != nil {
			t.Fatalf("%s: DecodeWire: %v", spec.Name, err)
		}
		got, err := spec.Store.Load(back)
		if err != nil {
			t.Fatalf("%s: Load: %v", spec.Name, err)
		}
		if st, ok := got.(Streamed); ok {
			// Streaming representations round-trip bytes, not objects:
			// the decoded payload must replay exactly the wire form.
			var buf bytes.Buffer
			if n, err := st.WriteTo(&buf); err != nil || n != int64(len(data)) {
				t.Fatalf("%s: WriteTo: n=%d err=%v (want %d bytes)", spec.Name, n, err, len(data))
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Errorf("%s: streamed round trip diverges from wire bytes", spec.Name)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip: got %+v, want %+v", spec.Name, got, want)
		}
	}
}

// retiredEventPayloads are compact-sax wire payloads (flag byte 0, then
// sax.CompactSequence.AppendBinary's form) whose op streams hold op
// byte 6 or 7, the comment and processing-instruction events the sax
// event model no longer has, each shaped as those events were encoded.
var retiredEventPayloads = [][]byte{
	// ops: start document, comment "c", end document
	{0, 3, 1, 6, 2, 1, 1, 2, 0, 1, 'c'},
	// ops: start document, processing instruction t b, end document
	{0, 3, 1, 7, 2, 2, 1, 2, 3, 0, 1, 't', 1, 'b'},
}

// TestCompactSAXWireRefusesRetiredOps: a peer's compact-sax entry
// holding a comment or processing-instruction op is refused at
// DecodeWire, before anything replays it.
func TestCompactSAXWireRefusesRetiredOps(t *testing.T) {
	reg, _ := wireFixtureRegistry(t)
	store, err := reg.Store("compact-sax")
	if err != nil {
		t.Fatal(err)
	}
	ws := store.(WireStore)
	for _, data := range retiredEventPayloads {
		if _, err := ws.DecodeWire(data); err == nil {
			t.Errorf("DecodeWire(%v) succeeded", data)
		}
	}
}

// TestWireSpecsExcludeObjectReps pins the per-tier admission rule: the
// copy/ref representations hold live object graphs and must never be
// offered to a remote tier.
func TestWireSpecsExcludeObjectReps(t *testing.T) {
	reg, _ := wireFixtureRegistry(t)
	for _, spec := range reg.WireSpecs() {
		switch spec.Name {
		case "reflect", "clone", "ref", "sax", "dom":
			t.Errorf("object representation %q offered for the wire", spec.Name)
		}
	}
}

// TestStaticWireSelection: first applicable in preference order wins,
// and the name round-trips through LoadWire.
func TestStaticWireSelection(t *testing.T) {
	reg, f := wireFixtureRegistry(t)
	w := NewStaticSelector(reg)
	want := &item{Name: "beta", Score: 2}
	prefix := []byte("kept")
	rep, data, err := w.AppendWire(prefix, f.ictx(t, "doGetItem", want))
	if err != nil {
		t.Fatal(err)
	}
	if rep != "binser" {
		t.Errorf("static choice = %q, want binser", rep)
	}
	if !bytes.HasPrefix(data, prefix) || len(data) == len(prefix) {
		t.Fatalf("AppendWire returned %q, want %q and the value after it", data, prefix)
	}
	data = data[len(prefix):]
	got := f.reqCtx("doGetItem")
	if err := w.LoadWire(rep, data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Errorf("LoadWire round trip: got %+v, want %+v", got.Result, want)
	}
}

// TestStaticWireFallsThroughTypeLimits: a result binser cannot hold
// (unexported fields → not a bean) falls through to a message-level
// representation instead of failing.
func TestStaticWireFallsThroughTypeLimits(t *testing.T) {
	reg, f := wireFixtureRegistry(t)
	w := NewStaticSelector(reg)
	ictx := f.ictx(t, "doGetOpaque", "plain string result")
	ictx.Result = &opaqueResult{Name: "x", secret: 1}
	rep, _, err := w.AppendWire(nil, ictx)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	if rep == "binser" {
		t.Errorf("binser chosen for a non-bean result")
	}
}

// TestLoadWireRejectsNonWireRep: asking to decode under an
// object-graph representation, or one nothing is registered under, is
// a corrupt entry, not a panic.
func TestLoadWireRejectsNonWireRep(t *testing.T) {
	reg, f := wireFixtureRegistry(t)
	w := NewStaticSelector(reg)
	for _, name := range []string{"ref", "nonesuch"} {
		if err := w.LoadWire(name, []byte("x"), f.reqCtx("doGetItem")); !errors.Is(err, ErrCorruptWire) {
			t.Errorf("LoadWire(%s) = %v, want ErrCorruptWire", name, err)
		}
		if _, _, err := w.WirePayload(name, []byte("x")); err == nil {
			t.Errorf("WirePayload(%s) succeeded", name)
		}
	}
}
