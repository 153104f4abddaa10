package soap

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sax"
)

// These tests feed the decoder envelopes in the formats other SOAP
// stacks of the paper's era produced — Apache Axis 1.1 above all, since
// that is the middleware the paper prototypes on. Formatting quirks
// covered: multi-reference (id/href) encoding, unusual namespace
// prefixes, whitespace and newlines between elements, comments,
// attribute-order variation, and xsi:type values resolved through
// prefixes declared on ancestor elements.

// axisMultiRefResponse mimics Axis 1.1's default rpc/encoded output:
// the return value and nested objects are hoisted into multiRef
// elements referenced by href.
const axisMultiRefResponse = `<?xml version="1.0" encoding="UTF-8"?>
<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
 <soapenv:Body>
  <ns1:opResponse soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"
      xmlns:ns1="urn:TestSearch">
   <return href="#id0"/>
  </ns1:opResponse>
  <multiRef id="id0" soapenc:root="0"
      soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"
      xsi:type="ns2:DirectoryCategory"
      xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/"
      xmlns:ns2="urn:TestSearch">
   <fullViewableName xsi:type="xsd:string">Top/Computers</fullViewableName>
   <specialEncoding href="#id1"/>
  </multiRef>
  <multiRef id="id1" soapenc:root="0"
      soapenv:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"
      xsi:type="soapenc:string"
      xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/">utf-8</multiRef>
 </soapenv:Body>
</soapenv:Envelope>`

// spacedMultiRefResponses respell axisMultiRefResponse's hrefs with
// the whitespace XML allows around '=' (S? '=' S?), in both quote kinds.
func spacedMultiRefResponses() []string {
	return []string{
		strings.NewReplacer(`href="#id0"`, `href = "#id0"`, `href="#id1"`, `href= "#id1"`).Replace(axisMultiRefResponse),
		strings.NewReplacer(`href="#id0"`, "href=\n\t'#id0'", `href="#id1"`, "href\r\n= '#id1'").Replace(axisMultiRefResponse),
	}
}

func TestInteropAxisMultiRef(t *testing.T) {
	c := newTestCodec(t)
	memo := c.NewEnvelopeMemo(nil)
	for _, doc := range append([]string{axisMultiRefResponse}, spacedMultiRefResponses()...) {
		check := func(how string, msg *DecodedMessage, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", how, err)
			}
			dc, ok := msg.Result().(*directoryCategory)
			if !ok {
				t.Fatalf("%s: result = %T", how, msg.Result())
			}
			if dc.FullViewableName != "Top/Computers" || dc.SpecialEncoding != "utf-8" {
				t.Errorf("%s: decoded %+v", how, dc)
			}
		}
		msg, err := c.DecodeEnvelope([]byte(doc))
		check("DecodeEnvelope", msg, err)
		// The memo learns a shape on its second sighting and decodes
		// through it from the third on.
		for i := 1; i <= 3; i++ {
			msg, err := memo.Decode([]byte(doc))
			check(fmt.Sprintf("memo sighting %d", i), msg, err)
		}
	}
}

func TestInteropMultiRefViaRecordedEvents(t *testing.T) {
	// The SAX cache representation must survive multiref envelopes too:
	// record the events, replay-decode them.
	c := newTestCodec(t)
	events, err := sax.Record([]byte(axisMultiRefResponse))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := c.DecodeEnvelopeEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	dc := msg.Result().(*directoryCategory)
	if dc.FullViewableName != "Top/Computers" {
		t.Errorf("decoded %+v", dc)
	}
}

func TestInteropMultiRefSharedCarrier(t *testing.T) {
	// Two hrefs to the same carrier: both fields get the value, and
	// mutating one must not affect the other (deep copy at splice).
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"
	    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
	    xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:m="urn:TestSearch">
	 <e:Body>
	  <m:opResponse>
	   <return xsi:type="m:DirectoryCategory">
	    <fullViewableName href="#s"/>
	    <specialEncoding href="#s"/>
	   </return>
	  </m:opResponse>
	  <multiRef id="s" xsi:type="xsd:string">shared</multiRef>
	 </e:Body>
	</e:Envelope>`
	c := newTestCodec(t)
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	dc := msg.Result().(*directoryCategory)
	if dc.FullViewableName != "shared" || dc.SpecialEncoding != "shared" {
		t.Errorf("decoded %+v", dc)
	}
}

func TestInteropMultiRefArray(t *testing.T) {
	// An Axis-style encoded array whose items are hrefs.
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"
	    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
	    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
	    xmlns:enc="http://schemas.xmlsoap.org/soap/encoding/"
	    xmlns:m="urn:TestSearch">
	 <e:Body>
	  <m:opResponse>
	   <return xsi:type="enc:Array" enc:arrayType="m:DirectoryCategory[2]">
	    <item href="#c0"/>
	    <item href="#c1"/>
	   </return>
	  </m:opResponse>
	  <multiRef id="c0" xsi:type="m:DirectoryCategory">
	   <fullViewableName xsi:type="xsd:string">A</fullViewableName>
	   <specialEncoding xsi:type="xsd:string"></specialEncoding>
	  </multiRef>
	  <multiRef id="c1" xsi:type="m:DirectoryCategory">
	   <fullViewableName xsi:type="xsd:string">B</fullViewableName>
	   <specialEncoding xsi:type="xsd:string"></specialEncoding>
	  </multiRef>
	 </e:Body>
	</e:Envelope>`
	c := newTestCodec(t)
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cats, ok := msg.Result().([]directoryCategory)
	if !ok {
		t.Fatalf("result = %T", msg.Result())
	}
	if len(cats) != 2 || cats[0].FullViewableName != "A" || cats[1].FullViewableName != "B" {
		t.Errorf("decoded %+v", cats)
	}
}

func TestInteropMultiRefUnresolved(t *testing.T) {
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/" xmlns:m="urn:m">
	 <e:Body><m:op><v href="#nope"/></m:op></e:Body></e:Envelope>`
	c := newTestCodec(t)
	if _, err := c.DecodeEnvelope([]byte(doc)); err == nil {
		t.Error("unresolved href accepted")
	}
}

func TestInteropMultiRefCycle(t *testing.T) {
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"
	    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:m="urn:TestSearch">
	 <e:Body>
	  <m:op><v href="#a"/></m:op>
	  <multiRef id="a" xsi:type="m:DirectoryCategory"><fullViewableName href="#b"/></multiRef>
	  <multiRef id="b" xsi:type="m:DirectoryCategory"><fullViewableName href="#a"/></multiRef>
	 </e:Body>
	</e:Envelope>`
	c := newTestCodec(t)
	if _, err := c.DecodeEnvelope([]byte(doc)); err == nil {
		t.Error("reference cycle accepted")
	}
}

func TestInteropForeignPrefixesAndWhitespace(t *testing.T) {
	// .NET-style single-letter prefixes, generous whitespace, comments,
	// and xsi:type prefixes declared on an ancestor.
	doc := "<?xml version=\"1.0\"?>\n" +
		`<S:Envelope xmlns:S="http://schemas.xmlsoap.org/soap/envelope/"
		    xmlns:i="http://www.w3.org/2001/XMLSchema-instance"
		    xmlns:d="http://www.w3.org/2001/XMLSchema"
		    xmlns:g="urn:TestSearch">
		  <!-- produced by a foreign stack -->
		  <S:Body>
		    <g:opResponse>
		      <return i:type="g:DirectoryCategory">
		        <fullViewableName i:type="d:string">  spaced value  </fullViewableName>
		        <specialEncoding i:type="d:string">x</specialEncoding>
		      </return>
		    </g:opResponse>
		  </S:Body>
		</S:Envelope>`
	c := newTestCodec(t)
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	dc := msg.Result().(*directoryCategory)
	// String values preserve interior whitespace exactly.
	if dc.FullViewableName != "  spaced value  " {
		t.Errorf("value = %q", dc.FullViewableName)
	}
}

func TestInteropDefaultNamespaceBody(t *testing.T) {
	// Some stacks put the envelope in the default namespace.
	doc := `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"
	    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
	    xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <Body>
	    <op xmlns="urn:whatever">
	      <v xsi:type="xsd:int"> 42 </v>
	    </op>
	  </Body>
	</Envelope>`
	c := newTestCodec(t)
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := paramValue(msg, "v"); got != 42 {
		t.Errorf("v = %#v", got)
	}
}

func TestInteropBooleanAsDigits(t *testing.T) {
	// XML Schema allows 0/1 for booleans; some stacks emit them.
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"
	    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
	    xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:m="urn:m">
	 <e:Body><m:op><a xsi:type="xsd:boolean">1</a><b xsi:type="xsd:boolean">0</b></m:op></e:Body>
	</e:Envelope>`
	c := newTestCodec(t)
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := paramValue(msg, "a")
	b, _ := paramValue(msg, "b")
	if a != true || b != false {
		t.Errorf("a=%v b=%v", a, b)
	}
}

func TestInteropBase64WithLineBreaks(t *testing.T) {
	// MIME-style folded base64, as Axis produced for long binaries.
	doc := `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"
	    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
	    xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:m="urn:m">
	 <e:Body><m:op><blob xsi:type="xsd:base64Binary">aGVsbG8g
d29ybGQh</blob></m:op></e:Body></e:Envelope>`
	c := newTestCodec(t)
	msg, err := c.DecodeEnvelope([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := paramValue(msg, "blob")
	if string(got.([]byte)) != "hello world!" {
		t.Errorf("blob = %q", got)
	}
}

func TestInteropOurEncoderNeverEmitsHref(t *testing.T) {
	// Sanity: our own encoder uses inline encoding, so the multiref
	// path never triggers on self-produced messages.
	c := newTestCodec(t)
	doc, err := c.EncodeResponse(testNS, "doGoogleSearch", sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(doc), "href=") {
		t.Error("encoder emitted href")
	}
	if hasHref(doc) {
		t.Error("hasHref misfired on inline encoding")
	}
}
