package rep

import (
	"bytes"
	"testing"
)

func TestCompactBodyStoreRoundTrip(t *testing.T) {
	f := newFixture(t)
	body, err := f.codec.EncodeResponse(testNS, "get", &item{Name: "x", Tags: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	store := NewCompactBodyStore()
	payload, size, err := store.Store(body)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 || size >= len(body)*4 {
		t.Errorf("resident size = %d for a %d-byte body", size, len(body))
	}
	got, err := store.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The re-rendered envelope must decode to the same result.
	msg, err := f.codec.DecodeEnvelope(got)
	if err != nil {
		t.Fatalf("re-rendered body does not decode: %v\n%s", err, got)
	}
	gi, ok := msg.Result().(*item)
	if !ok || gi.Name != "x" || len(gi.Tags) != 2 {
		t.Errorf("decoded %#v", msg.Result())
	}
	// The streaming form writes exactly what Load materializes.
	var streamed bytes.Buffer
	if n, err := store.WriteBody(payload, &streamed); err != nil || int(n) != len(got) || !bytes.Equal(streamed.Bytes(), got) {
		t.Errorf("WriteBody wrote %d bytes, err %v; want Load's %d bytes", n, err, len(got))
	}
	if _, err := store.Load(42); err == nil {
		t.Error("bad payload accepted")
	}
	if n, err := store.WriteBody(42, &streamed); err == nil || n != 0 {
		t.Errorf("WriteBody(bad payload) = %d, %v; want 0 bytes and an error", n, err)
	}
	if _, _, err := store.Store([]byte("not xml <<<")); err == nil {
		t.Error("unparseable body accepted")
	}
}
