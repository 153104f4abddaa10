package binser

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/typemap"
)

type inner struct {
	Label string
}

type outer struct {
	Name    string
	Count   int
	Big     int64
	Small   int8
	U       uint32
	Ratio   float64
	F32     float32
	Flag    bool
	Blob    []byte
	Tags    []string
	Inner   inner
	PtrTo   *inner
	Items   []inner
	Mapping map[string]string
}

type hidden struct {
	Public string
	secret int //nolint:unused
}

func newTestCodec(t *testing.T) *Codec {
	t.Helper()
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: "urn:t", Local: "Inner"}, inner{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(typemap.QName{Space: "urn:t", Local: "Outer"}, outer{}); err != nil {
		t.Fatal(err)
	}
	return NewCodec(reg)
}

func TestRoundTripPrimitives(t *testing.T) {
	c := newTestCodec(t)
	cases := []any{
		nil, "hello", "", true, false,
		int(42), int(-42), int(0),
		float64(3.14159), float64(0), math.Inf(1),
		[]byte{0, 1, 2, 255},
	}
	for _, v := range cases {
		data, err := c.Marshal(v)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		got, err := c.Unmarshal(data)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		if b, ok := v.([]byte); ok {
			if !bytes.Equal(got.([]byte), b) {
				t.Errorf("bytes: got %v", got)
			}
			continue
		}
		if got != v {
			t.Errorf("got %#v (%T), want %#v (%T)", got, got, v, v)
		}
	}
}

func TestRoundTripStruct(t *testing.T) {
	c := newTestCodec(t)
	orig := &outer{
		Name:    "x",
		Count:   7,
		Big:     1 << 40,
		Small:   -5,
		U:       123456,
		Ratio:   2.5,
		F32:     1.25,
		Flag:    true,
		Blob:    []byte{9, 8},
		Tags:    []string{"a", "b"},
		Inner:   inner{Label: "in"},
		PtrTo:   &inner{Label: "ptr"},
		Items:   []inner{{Label: "i1"}, {Label: "i2"}},
		Mapping: map[string]string{"k": "v"},
	}
	data, err := c.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := got.(*outer)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	// Maps decode as map[string]any; compare the rest directly.
	wantMap := orig.Mapping
	origNoMap := *orig
	origNoMap.Mapping = nil
	outMap := out.Mapping
	outNoMap := *out
	outNoMap.Mapping = nil
	if !reflect.DeepEqual(&origNoMap, &outNoMap) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", &origNoMap, &outNoMap)
	}
	if len(outMap) != len(wantMap) || outMap["k"] != "v" {
		t.Errorf("map = %v", outMap)
	}
}

func TestNilFieldsStayNil(t *testing.T) {
	c := newTestCodec(t)
	data, err := c.Marshal(&outer{Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*outer)
	if out.PtrTo != nil {
		t.Error("nil pointer materialized")
	}
	if out.Name != "n" {
		t.Errorf("name = %q", out.Name)
	}
}

func TestDecodedIsIndependent(t *testing.T) {
	c := newTestCodec(t)
	orig := &outer{Blob: []byte{1}, Tags: []string{"t"}, Items: []inner{{Label: "x"}}}
	data, err := c.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.Unmarshal(data)
	out := got.(*outer)
	out.Blob[0] = 99
	out.Tags[0] = "mutated"
	out.Items[0].Label = "mutated"
	if orig.Blob[0] != 1 || orig.Tags[0] != "t" || orig.Items[0].Label != "x" {
		t.Error("decode aliased the original")
	}
	// Payload itself is immune too: decode again.
	got2, _ := c.Unmarshal(data)
	if got2.(*outer).Tags[0] != "t" {
		t.Error("payload mutated")
	}
}

func TestUnregisteredStructRejected(t *testing.T) {
	c := newTestCodec(t)
	type unknown struct{ X int }
	_, err := c.Marshal(&unknown{})
	var nse *notSerializableError
	if !errors.As(err, &nse) {
		t.Errorf("err = %v, want NotSerializableError", err)
	}
}

func TestUnexportedFieldsRejected(t *testing.T) {
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Local: "Hidden"}, hidden{}); err != nil {
		t.Fatal(err)
	}
	c := NewCodec(reg)
	if _, err := c.Marshal(&hidden{Public: "x"}); err == nil {
		t.Error("struct with unexported field accepted")
	}
}

func TestUnsupportedKinds(t *testing.T) {
	c := newTestCodec(t)
	if _, err := c.Marshal(func() {}); err == nil {
		t.Error("func accepted")
	}
	if _, err := c.Marshal(make(chan int)); err == nil {
		t.Error("chan accepted")
	}
}

func TestCycleDetected(t *testing.T) {
	type node struct {
		Next *node
	}
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Local: "Node"}, node{}); err != nil {
		t.Fatal(err)
	}
	c := NewCodec(reg)
	n := &node{}
	n.Next = n
	if _, err := c.Marshal(n); err == nil {
		t.Error("cycle accepted (should exceed depth limit)")
	}
}

func TestTruncatedAndMalformedInput(t *testing.T) {
	c := newTestCodec(t)
	data, err := c.Marshal(&outer{Name: "x", Tags: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := c.Unmarshal(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := c.Unmarshal([]byte{255}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := c.Unmarshal(append(append([]byte{}, data...), 0xEE)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUnknownStructNameRejected(t *testing.T) {
	reg := typemap.NewRegistry()
	if err := reg.Register(typemap.QName{Space: "urn:t", Local: "Inner"}, inner{}); err != nil {
		t.Fatal(err)
	}
	data, err := NewCodec(reg).Marshal(&inner{Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// A decoder without the registration must reject it.
	empty := NewCodec(typemap.NewRegistry())
	if _, err := empty.Unmarshal(data); err == nil {
		t.Error("unknown struct type accepted")
	}
}

func TestAppendComposesKeys(t *testing.T) {
	c := newTestCodec(t)
	buf := []byte("prefix")
	buf, err := c.Append(buf, "a")
	if err != nil {
		t.Fatal(err)
	}
	buf, err = c.Append(buf, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte("prefix")) {
		t.Error("prefix lost")
	}
	// Different values yield different buffers.
	buf2, _ := c.Append([]byte("prefix"), "a")
	buf2, _ = c.Append(buf2, 43)
	if bytes.Equal(buf, buf2) {
		t.Error("different values, same bytes")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := newTestCodec(t)
	f := func(name string, count int, ratio float64, flag bool, tags []string, blob []byte) bool {
		orig := &outer{Name: name, Count: count, Ratio: ratio, Flag: flag, Tags: tags, Blob: blob}
		data, err := c.Marshal(orig)
		if err != nil {
			return false
		}
		got, err := c.Unmarshal(data)
		if err != nil {
			return false
		}
		out := got.(*outer)
		if out.Name != name || out.Count != count || out.Flag != flag {
			return false
		}
		if ratio == ratio && out.Ratio != ratio { // NaN-tolerant
			return false
		}
		if len(out.Tags) != len(tags) || len(out.Blob) != len(blob) {
			return false
		}
		for i := range tags {
			if out.Tags[i] != tags[i] {
				return false
			}
		}
		return bytes.Equal(out.Blob, blob) || (len(blob) == 0 && len(out.Blob) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	c := newTestCodec(t)
	v := &outer{Name: "same", Count: 1, Tags: []string{"a", "b"}}
	d1, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("encoding not deterministic")
	}
}

func TestMapEncodingDeterministic(t *testing.T) {
	c := newTestCodec(t)
	v := &outer{Mapping: map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}}
	d1, err := c.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d2, err := c.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d1, d2) {
			t.Fatal("map encoding not deterministic (iteration order leaked)")
		}
	}
}
