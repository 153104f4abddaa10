package xsd

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/typemap"
)

const schemaDoc = `
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
            xmlns:tns="urn:test"
            xmlns:soapenc="http://schemas.xmlsoap.org/soap/encoding/"
            xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
            targetNamespace="urn:test">
  <xsd:complexType name="Result">
    <xsd:sequence>
      <xsd:element name="title" type="xsd:string"/>
      <xsd:element name="count" type="xsd:int" minOccurs="0"/>
      <xsd:element name="scores" type="xsd:double" maxOccurs="unbounded"/>
      <xsd:element name="child" type="tns:Child" nillable="true"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Child">
    <xsd:sequence>
      <xsd:element name="v" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="ResultArray">
    <xsd:complexContent>
      <xsd:restriction base="soapenc:Array">
        <xsd:attribute ref="soapenc:arrayType" wsdl:arrayType="tns:Result[]"/>
      </xsd:restriction>
    </xsd:complexContent>
  </xsd:complexType>
  <xsd:complexType name="Empty"/>
</xsd:schema>`

func parseTestSchema(t *testing.T) *Schema {
	t.Helper()
	d, err := dom.Parse([]byte(schemaDoc))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSchema(d.Root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSchemaComplexType(t *testing.T) {
	s := parseTestSchema(t)
	if s.TargetNamespace != "urn:test" {
		t.Errorf("tns = %q", s.TargetNamespace)
	}
	r, ok := s.TypeByName("Result")
	if !ok {
		t.Fatal("Result type missing")
	}
	if r.Kind != kindComplex {
		t.Errorf("kind = %v", r.Kind)
	}
	if len(r.Elements) != 4 {
		t.Fatalf("elements = %+v", r.Elements)
	}
	title := r.Elements[0]
	if title.Name != "title" || title.Type != builtinQName("string") {
		t.Errorf("title = %+v", title)
	}
	count := r.Elements[1]
	if count.MinOccurs != 0 {
		t.Errorf("count minOccurs = %d", count.MinOccurs)
	}
	scores := r.Elements[2]
	if scores.MaxOccurs != -1 {
		t.Errorf("scores maxOccurs = %d", scores.MaxOccurs)
	}
	child := r.Elements[3]
	if !child.Nillable {
		t.Error("child should be nillable")
	}
	if child.Type != (typemap.QName{Space: "urn:test", Local: "Child"}) {
		t.Errorf("child type = %v", child.Type)
	}
}

func TestParseSchemaArrayType(t *testing.T) {
	s := parseTestSchema(t)
	a, ok := s.TypeByName("ResultArray")
	if !ok {
		t.Fatal("ResultArray missing")
	}
	if a.Kind != KindArray {
		t.Fatalf("kind = %v", a.Kind)
	}
	if a.ArrayOf != (typemap.QName{Space: "urn:test", Local: "Result"}) {
		t.Errorf("arrayOf = %v", a.ArrayOf)
	}
}

func TestParseSchemaEmptyType(t *testing.T) {
	s := parseTestSchema(t)
	e, ok := s.TypeByName("Empty")
	if !ok {
		t.Fatal("Empty missing")
	}
	if e.Kind != kindComplex || len(e.Elements) != 0 {
		t.Errorf("empty type = %+v", e)
	}
}

func TestParseSchemaWrongRoot(t *testing.T) {
	d, err := dom.Parse([]byte(`<notschema/>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSchema(d.Root); err == nil {
		t.Error("expected error for non-schema root")
	}
}

func TestParseSchemaAnonymousComplexType(t *testing.T) {
	doc := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:complexType><xsd:sequence/></xsd:complexType>
	</xsd:schema>`
	d, err := dom.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSchema(d.Root); err == nil {
		t.Error("expected error for unnamed complexType")
	}
}

func TestIsBuiltin(t *testing.T) {
	if !IsBuiltin(builtinQName("string")) {
		t.Error("string is builtin")
	}
	if !IsBuiltin(builtinQName("base64Binary")) {
		t.Error("base64Binary is builtin")
	}
	if IsBuiltin(typemap.QName{Space: "urn:test", Local: "string"}) {
		t.Error("wrong namespace must not be builtin")
	}
	if IsBuiltin(builtinQName("noSuchType")) {
		t.Error("unknown local must not be builtin")
	}
}

func TestUndeclaredPrefixInTypeRef(t *testing.T) {
	doc := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
	  <xsd:complexType name="T">
	    <xsd:sequence><xsd:element name="e" type="nope:X"/></xsd:sequence>
	  </xsd:complexType>
	</xsd:schema>`
	d, err := dom.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSchema(d.Root); err == nil {
		t.Error("expected error for undeclared prefix")
	}
}

// builtinQName is the QName of an XML Schema built-in type.
func builtinQName(local string) typemap.QName {
	return typemap.QName{Space: SchemaNS, Local: local}
}
