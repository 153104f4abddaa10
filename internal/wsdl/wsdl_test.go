package wsdl

import (
	"testing"

	"repro/internal/typemap"
	"repro/internal/xsd"
)

const testWSDL = `<?xml version="1.0"?>
<wsdl:definitions name="StockQuote"
    targetNamespace="urn:quote"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="urn:quote">
  <wsdl:types>
    <xsd:schema targetNamespace="urn:quote"
        xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:complexType name="Quote">
        <xsd:sequence>
          <xsd:element name="symbol" type="xsd:string"/>
          <xsd:element name="price" type="xsd:double"/>
        </xsd:sequence>
      </xsd:complexType>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="getQuoteRequest">
    <wsdl:part name="symbol" type="xsd:string"/>
  </wsdl:message>
  <wsdl:message name="getQuoteResponse">
    <wsdl:part name="return" type="tns:Quote"/>
  </wsdl:message>
  <wsdl:portType name="QuotePort">
    <wsdl:operation name="getQuote">
      <wsdl:input message="tns:getQuoteRequest"/>
      <wsdl:output message="tns:getQuoteResponse"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="QuoteBinding" type="tns:QuotePort">
    <soap:binding style="rpc" transport="http://schemas.xmlsoap.org/soap/http"/>
    <wsdl:operation name="getQuote">
      <soap:operation soapAction="urn:quote#getQuote"/>
      <wsdl:input>
        <soap:body use="encoded" namespace="urn:quote"/>
      </wsdl:input>
      <wsdl:output>
        <soap:body use="encoded" namespace="urn:quote"/>
      </wsdl:output>
    </wsdl:operation>
  </wsdl:binding>
  <wsdl:service name="QuoteService">
    <wsdl:port name="QuotePort" binding="tns:QuoteBinding">
      <soap:address location="http://example.com/quote"/>
    </wsdl:port>
  </wsdl:service>
</wsdl:definitions>`

func parseTestWSDL(t *testing.T) *Definitions {
	t.Helper()
	defs, err := Parse([]byte(testWSDL))
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func TestParseDefinitions(t *testing.T) {
	defs := parseTestWSDL(t)
	if defs.Name != "StockQuote" {
		t.Errorf("name = %q", defs.Name)
	}
	if defs.TargetNamespace != "urn:quote" {
		t.Errorf("tns = %q", defs.TargetNamespace)
	}
	if len(defs.Schemas) != 1 {
		t.Fatalf("schemas = %d", len(defs.Schemas))
	}
}

func TestMessages(t *testing.T) {
	defs := parseTestWSDL(t)
	req, ok := defs.Messages["getQuoteRequest"]
	if !ok {
		t.Fatal("request message missing")
	}
	if len(req.Parts) != 1 || req.Parts[0].Name != "symbol" {
		t.Fatalf("parts = %+v", req.Parts)
	}
	if req.Parts[0].Type != (typemap.QName{Space: xsd.SchemaNS, Local: "string"}) {
		t.Errorf("part type = %v", req.Parts[0].Type)
	}
	resp := defs.Messages["getQuoteResponse"]
	if resp.Parts[0].Type != (typemap.QName{Space: "urn:quote", Local: "Quote"}) {
		t.Errorf("response type = %v", resp.Parts[0].Type)
	}
}

func TestPortTypeAndOperationIO(t *testing.T) {
	defs := parseTestWSDL(t)
	op, ok := defs.Operation("getQuote")
	if !ok {
		t.Fatal("operation missing")
	}
	if op.Input != "getQuoteRequest" || op.Output != "getQuoteResponse" {
		t.Errorf("op = %+v", op)
	}
	in, out, err := defs.OperationIO("getQuote")
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "getQuoteRequest" || out.Name != "getQuoteResponse" {
		t.Errorf("io = %v %v", in.Name, out.Name)
	}
	if _, _, err := defs.OperationIO("nope"); err == nil {
		t.Error("expected error for unknown operation")
	}
}

func TestBinding(t *testing.T) {
	defs := parseTestWSDL(t)
	b, ok := defs.Bindings["QuoteBinding"]
	if !ok {
		t.Fatal("binding missing")
	}
	if b.Style != "rpc" || b.PortType != "QuotePort" {
		t.Errorf("binding = %+v", b)
	}
	bo, ok := b.Operations["getQuote"]
	if !ok {
		t.Fatal("binding op missing")
	}
	if bo.SOAPAction != "urn:quote#getQuote" || bo.Use != "encoded" || bo.Namespace != "urn:quote" {
		t.Errorf("binding op = %+v", bo)
	}
}

func TestServiceAndEndpoint(t *testing.T) {
	defs := parseTestWSDL(t)
	sv, ok := defs.Services["QuoteService"]
	if !ok {
		t.Fatal("service missing")
	}
	if len(sv.Ports) != 1 || sv.Ports[0].Location != "http://example.com/quote" {
		t.Errorf("ports = %+v", sv.Ports)
	}
	loc, ok := defs.Endpoint()
	if !ok || loc != "http://example.com/quote" {
		t.Errorf("endpoint = %q, %v", loc, ok)
	}
}

func TestSchemaType(t *testing.T) {
	defs := parseTestWSDL(t)
	if len(defs.Schemas) != 1 || defs.Schemas[0].TargetNamespace != "urn:quote" {
		t.Fatalf("schemas = %+v", defs.Schemas)
	}
	q, ok := defs.Schemas[0].TypeByName("Quote")
	if !ok {
		t.Fatal("Quote type missing")
	}
	if len(q.Elements) != 2 {
		t.Errorf("elements = %+v", q.Elements)
	}
}

func TestParseWrongRoot(t *testing.T) {
	if _, err := Parse([]byte(`<definitions/>`)); err == nil {
		t.Error("expected error for unqualified root")
	}
	if _, err := Parse([]byte(`not xml`)); err == nil {
		t.Error("expected error for malformed document")
	}
}

func TestLocalRef(t *testing.T) {
	if localRef("tns:x") != "x" || localRef("x") != "x" {
		t.Error("localRef broken")
	}
}
