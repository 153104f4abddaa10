package soap

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/typemap"
)

const memoNS = "urn:MemoTest"

type memoLabel string

type memoInner struct {
	Name string
	Tags []string
	Blob []byte
}

type memoOuter struct {
	Ptr    *memoInner
	Items  []memoInner
	Nested []memoInner
	Count  int64
	Label  memoLabel
	Opt    *int
	Repeat []string
}

// memoLayoutDoc exercises every way the decoder lays a value out: a
// pointer field, a slice of structs with a nil item, a slice of
// structs that hold slices, a base64 field, an xsd:int converted into
// an int64 field, a named string type with no xsi:type, a pointer to an
// int, and literal repeated elements appended to a slice field.
func memoLayoutDoc(text string, n int) []byte {
	return []byte(fmt.Sprintf(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" `+
		`xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/" xmlns:xsd="http://www.w3.org/2001/XMLSchema" `+
		`xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:ns1="urn:MemoTest"><soapenv:Body>`+
		`<ns1:opResponse><return xsi:type="ns1:Outer">`+
		`<ptr xsi:type="ns1:Inner"><name xsi:type="xsd:string">%[1]s</name>`+
		`<tags xsi:type="soapenc:Array" soapenc:arrayType="xsd:string[2]"><item xsi:type="xsd:string">%[1]s-t</item><item xsi:type="xsd:string">t2</item></tags>`+
		`<blob xsi:type="xsd:base64Binary">%[2]s</blob></ptr>`+
		`<items xsi:type="soapenc:Array" soapenc:arrayType="ns1:Inner[2]"><item xsi:type="ns1:Inner"><name xsi:type="xsd:string">%[1]s-i</name></item><item xsi:nil="true"/></items>`+
		`<nested xsi:type="soapenc:Array" soapenc:arrayType="ns1:Inner[1]"><item xsi:type="ns1:Inner"><name xsi:type="xsd:string">n</name>`+
		`<tags xsi:type="soapenc:Array" soapenc:arrayType="xsd:string[1]"><item xsi:type="xsd:string">%[1]s</item></tags></item></nested>`+
		`<count xsi:type="xsd:int">%[3]d</count><label>%[1]s</label><opt xsi:type="xsd:int">%[3]d</opt>`+
		`<repeat>%[1]s</repeat><repeat>r2</repeat>`+
		`</return></ns1:opResponse></soapenv:Body></soapenv:Envelope>`,
		text, base64.StdEncoding.EncodeToString([]byte(text)), n))
}

// TestMemoCopiesEveryLayout: a memo hit on memoLayoutDoc equals the
// full decode, and two hits share no memory a caller can write.
func TestMemoCopiesEveryLayout(t *testing.T) {
	reg := typemap.NewRegistry()
	for local, proto := range map[string]any{"Inner": memoInner{}, "Outer": memoOuter{}} {
		if err := reg.Register(typemap.QName{Space: memoNS, Local: local}, proto); err != nil {
			t.Fatal(err)
		}
	}
	codec := NewCodec(reg)
	m := codec.NewEnvelopeMemo(nil)
	for i := 0; i < 2; i++ {
		if _, err := m.Decode(memoLayoutDoc("learn", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Shapes() != 1 {
		t.Fatalf("memo learnt %d shapes, want 1", m.Shapes())
	}
	doc := memoLayoutDoc("hit &amp; run", 42)
	want, err := codec.DecodeEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
		t.Fatalf("memo hit decoded\n%+v\nfull decode\n%+v", first.Result(), want.Result())
	}
	r := first.Result().(*memoOuter)
	r.Ptr.Name, r.Ptr.Tags[0], r.Ptr.Blob[0] = "x", "x", 'x'
	r.Items[0].Name, r.Nested[0].Tags[0], r.Repeat[0] = "x", "x", "x"
	*r.Opt = -1
	if !reflect.DeepEqual(second, want) {
		t.Errorf("writing one hit's result changed another's: %+v", second.Result())
	}
}
