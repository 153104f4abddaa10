package rep

import (
	"bytes"
	"testing"

	"repro/internal/client"
	"repro/internal/soap"
)

// streamCtx fabricates a stream-accepting invocation context.
func (f *fixture) streamCtx(t *testing.T, op string, result any, params ...soap.Param) *client.Context {
	t.Helper()
	ictx := f.ictx(t, op, result, params...)
	ictx.AcceptStream = true
	return ictx
}

func TestRawStreamStoreRoundTrip(t *testing.T) {
	f := newFixture(t)
	st := NewRawStreamStore()
	ictx := f.streamCtx(t, "get", &item{Name: "alpha", Score: 1.5})

	payload, size, err := st.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(ictx.ResponseXML) {
		t.Errorf("size = %d, want %d", size, len(ictx.ResponseXML))
	}

	// The payload must be a copy: the transport owns the context buffer.
	want := append([]byte(nil), ictx.ResponseXML...)
	for i := range ictx.ResponseXML {
		ictx.ResponseXML[i] = 'X'
	}

	got, err := st.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	stream, ok := got.(Streamed)
	if !ok {
		t.Fatalf("Load returned %T, want Streamed", got)
	}
	if stream.Len() != len(want) {
		t.Errorf("Len = %d, want %d", stream.Len(), len(want))
	}
	var buf bytes.Buffer
	n, err := stream.WriteTo(&buf)
	if err != nil || n != int64(len(want)) {
		t.Fatalf("WriteTo: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("replayed bytes diverge from the stored envelope")
	}
}

func TestRawStreamStoreDeclinesWithoutResponse(t *testing.T) {
	f := newFixture(t)
	ictx := f.reqCtx("get")
	ictx.AcceptStream = true
	if _, _, err := NewRawStreamStore().Store(ictx); err == nil {
		t.Fatal("Store must decline an invocation with no captured response")
	}
}

func TestTemplateStoreSharesSkeletonAcrossEntries(t *testing.T) {
	f := newFixture(t)
	st := NewTemplateStore()

	first := f.streamCtx(t, "get", &item{Name: "first", Score: 1, Tags: []string{"a"}})
	second := f.streamCtx(t, "get", &item{Name: "second & <longer>", Score: 2, Tags: []string{"b"}})

	for _, ictx := range []*client.Context{first, second} {
		payload, _, err := st.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Load(payload)
		if err != nil {
			t.Fatal(err)
		}
		stream := got.(Streamed)
		// Byte identity: the spliced document must equal the envelope the
		// origin sent, XML declaration included.
		want := string(ictx.ResponseXML)
		var buf bytes.Buffer
		if n, err := stream.WriteTo(&buf); err != nil || int(n) != stream.Len() {
			t.Fatalf("WriteTo: n=%d err=%v, Len=%d", n, err, stream.Len())
		}
		if buf.String() != want {
			t.Errorf("spliced output diverges from the origin's envelope\n got: %s\nwant: %s", buf.String(), want)
		}
		if string(stream.Bytes()) != want {
			t.Errorf("Bytes diverges from the origin's envelope")
		}
	}

	stats := st.Stats()
	if stats.Learns != 1 || stats.Matches != 1 {
		t.Errorf("stats = %d learns, %d matches; want 1 learn (first fill) and 1 match (same shape)",
			stats.Learns, stats.Matches)
	}
	if stats.Skeletons != 1 {
		t.Errorf("skeletons = %d, want 1 shared skeleton", stats.Skeletons)
	}
	if stats.SkeletonBytes == 0 {
		t.Error("skeleton bytes not accounted")
	}
}

func TestTemplateStoreResidentSizeExcludesSkeleton(t *testing.T) {
	f := newFixture(t)
	st := NewTemplateStore()
	ictx := f.streamCtx(t, "get", &item{Name: "x", Score: 1})
	payload, size, err := st.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	rendered := payload.(*templateResponse).Len()
	if size >= rendered {
		t.Errorf("resident size %d is not smaller than the rendered document (%d); the shared skeleton must not be charged per entry",
			size, rendered)
	}
}

func TestTemplateStoreWireReInternsSkeleton(t *testing.T) {
	f := newFixture(t)
	sender := NewTemplateStore()
	receiver := NewTemplateStore()

	ictx := f.streamCtx(t, "get", &item{Name: "wire", Score: 3})
	payload, _, err := sender.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sender.EncodeWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	back, err := receiver.DecodeWire(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.(*templateResponse).Bytes(); !bytes.Equal(got, data) {
		t.Errorf("decoded payload renders differently from the wire bytes")
	}
	if s := receiver.Stats(); s.Learns != 1 || s.Skeletons != 1 {
		t.Errorf("receiver stats = %+v; DecodeWire must intern the shape like a local fill", s)
	}
	// A second entry of the same shape arriving over the wire matches.
	if _, err := receiver.DecodeWire(append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	if s := receiver.Stats(); s.Matches != 1 || s.Skeletons != 1 {
		t.Errorf("receiver stats after second decode = %+v; want a match against the interned skeleton", s)
	}
}

func TestStreamingRepsGatedOnAcceptStream(t *testing.T) {
	f := newFixture(t)
	reg := NewRegistry(f.reg, f.codec)
	plain := f.ictx(t, "get", &item{Name: "n"})
	stream := f.streamCtx(t, "get", &item{Name: "n"})
	for _, name := range []string{"raw", "xmltmpl"} {
		spec, err := reg.ValueSpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Applicable(plain) {
			t.Errorf("%s applicable without AcceptStream; streaming hits would hand bytes to object consumers", name)
		}
		if !spec.Applicable(stream) {
			t.Errorf("%s not applicable to a stream-accepting invocation", name)
		}
	}
}

func TestAutoStorePrefersRawForStreamConsumers(t *testing.T) {
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))
	ictx := f.streamCtx(t, "get", &item{Name: "n"})
	if got := auto.Classify(ictx); got != "Raw response replay" {
		t.Fatalf("classified %q, want Raw response replay", got)
	}
	payload, _, err := auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := auto.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(Streamed); !ok {
		t.Errorf("stream consumer loaded %T, want Streamed", got)
	}
	// Without the opt-in the same result must classify to an object
	// representation.
	if got := auto.Classify(f.ictx(t, "get", &item{Name: "n"})); got == "Raw response replay" {
		t.Error("non-stream consumer classified to raw replay")
	}
}
