package rep

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/sax"
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
	if stats.Builds != 1 || stats.Splices != 1 {
		t.Errorf("stats = %d builds, %d splices; want 1 build (first fill) and 1 splice (same shape)",
			stats.Builds, stats.Splices)
	}
	if stats.Skeletons != 1 {
		t.Errorf("skeletons = %d, want 1 shared skeleton", stats.Skeletons)
	}
	if stats.SkeletonBytes == 0 {
		t.Error("skeleton bytes not accounted")
	}
}

// TestTemplateStoreEventsOnlyHasNoPrologue: with only the recorded
// events captured there is no declaration to keep, and the replay is
// the full re-serialization of the event sequence.
func TestTemplateStoreEventsOnlyHasNoPrologue(t *testing.T) {
	f := newFixture(t)
	st := NewTemplateStore()
	ictx := f.streamCtx(t, "get", &item{Name: "events", Score: 1})
	ictx.ResponseXML = nil
	payload, _, err := st.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sax.WriteSequence(ictx.ResponseEvents)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(payload.(*SplicedResponse).Bytes()); got != want {
		t.Errorf("events-only replay\n got: %s\nwant: %s", got, want)
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
	rendered := payload.(*SplicedResponse).Len()
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
	if got := back.(*SplicedResponse).Bytes(); !bytes.Equal(got, data) {
		t.Errorf("decoded payload renders differently from the wire bytes")
	}
	if s := receiver.Stats(); s.Builds != 1 || s.Skeletons != 1 {
		t.Errorf("receiver stats = %+v; DecodeWire must intern the shape like a local fill", s)
	}
	// A second entry of the same shape arriving over the wire splices.
	if _, err := receiver.DecodeWire(append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	if s := receiver.Stats(); s.Splices != 1 || s.Skeletons != 1 {
		t.Errorf("receiver stats after second decode = %+v; want a splice against the interned skeleton", s)
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
	auto := NewAutoStore(f.reg, f.codec)
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

// TestAdaptiveSelectorPicksStreamingRep drives a repeat-heavy
// stream-accepting workload through the measured-cost selector and
// asserts it converges on one of the streaming representations — the
// acceptance criterion of DESIGN.md §5i. Real clock: the decision must
// come from genuinely measured costs (a raw replay load is a type
// assertion; every object representation pays a decode or copy).
func TestAdaptiveSelectorPicksStreamingRep(t *testing.T) {
	f := newFixture(t)
	reg := NewRegistry(f.reg, f.codec)
	sel, err := NewAdaptiveSelector(SelectorConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	result := &item{Name: "steady", Score: 4.5, Tags: []string{"hot", "path"}}
	for i := 0; i < 64; i++ {
		ictx := f.streamCtx(t, "get", result)
		payload, _, serr := sel.Store(ictx)
		if serr != nil {
			t.Fatal(serr)
		}
		if _, lerr := sel.Load(payload); lerr != nil {
			t.Fatal(lerr)
		}
	}
	table := sel.DecisionTable()
	if len(table) != 1 {
		t.Fatalf("decision table has %d classes, want 1", len(table))
	}
	d := table[0]
	if d.Source != "measured" {
		t.Fatalf("decision source = %q after 64 fills, want measured", d.Source)
	}
	if !strings.Contains(d.Chosen, "Raw response replay") && !strings.Contains(d.Chosen, "XML template") {
		t.Errorf("repeat-heavy stream workload chose %q, want a streaming representation", d.Chosen)
	}
}
