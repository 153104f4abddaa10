// Package xsd models the subset of XML Schema used by WSDL 1.1 service
// descriptions: the built-in simple types, complex types with element
// sequences, and SOAP-encoded arrays. The WSDL compiler analog in this
// repository uses these models to register Go types for a service's
// messages (what Axis's WSDL2Java did with generated classes).
package xsd

import (
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/typemap"
)

// Namespace URIs used by schema documents.
const (
	SchemaNS   = "http://www.w3.org/2001/XMLSchema"
	WSDLNS     = "http://schemas.xmlsoap.org/wsdl/"
	WSDLSOAPNS = "http://schemas.xmlsoap.org/wsdl/soap/"
)

// builtin names the XML Schema built-in simple types supported by the
// codec.
var builtin = map[string]bool{
	"string":       true,
	"boolean":      true,
	"int":          true,
	"integer":      true,
	"long":         true,
	"short":        true,
	"byte":         true,
	"unsignedInt":  true,
	"unsignedLong": true,
	"float":        true,
	"double":       true,
	"decimal":      true,
	"base64Binary": true,
	"anyType":      true,
	"anyURI":       true,
	"dateTime":     true,
}

// kind discriminates schema type definitions.
type kind int

// Schema type kinds.
const (
	kindComplex kind = iota + 2
	KindArray
)

// Element is a single element declaration inside a complex type's
// sequence.
type Element struct {
	Name      string
	Type      typemap.QName
	MinOccurs int
	MaxOccurs int // -1 means unbounded
	Nillable  bool
}

// Type is a named schema type definition.
type Type struct {
	Name     typemap.QName
	Kind     kind
	Elements []Element     // kindComplex
	ArrayOf  typemap.QName // KindArray: the soapenc arrayType item type
}

// Schema is a parsed <xsd:schema> element.
type Schema struct {
	TargetNamespace string
	Types           map[string]*Type // keyed by local name
}

// TypeByName returns the named type declared in this schema.
func (s *Schema) TypeByName(local string) (*Type, bool) {
	t, ok := s.Types[local]
	return t, ok
}

// ParseSchema parses an <xsd:schema> DOM element.
func ParseSchema(n *dom.Node) (*Schema, error) {
	if n.Name.Space != SchemaNS || n.Name.Local != "schema" {
		return nil, fmt.Errorf("xsd: element is %s, not an xsd schema", n.Name.Local)
	}
	tns, _ := n.Attr("targetNamespace")
	s := &Schema{
		TargetNamespace: tns,
		Types:           make(map[string]*Type),
	}
	for _, child := range n.Elems("complexType") {
		t, err := parseComplexType(s, child)
		if err != nil {
			return nil, err
		}
		s.Types[t.Name.Local] = t
	}
	return s, nil
}

// parseComplexType parses a named <xsd:complexType>.
func parseComplexType(s *Schema, n *dom.Node) (*Type, error) {
	name, ok := n.Attr("name")
	if !ok || name == "" {
		return nil, fmt.Errorf("xsd: complexType without name")
	}
	t := &Type{Name: typemap.QName{Space: s.TargetNamespace, Local: name}}

	// SOAP-encoded array: complexContent/restriction base="soapenc:Array"
	// with an attribute wsdl:arrayType="ns:Item[]".
	if cc := n.Elem("complexContent"); cc != nil {
		restr := cc.Elem("restriction")
		if restr == nil {
			return nil, fmt.Errorf("xsd: complexContent of %s without restriction", name)
		}
		itemType, err := parseArrayRestriction(restr)
		if err != nil {
			return nil, fmt.Errorf("xsd: type %s: %w", name, err)
		}
		t.Kind = KindArray
		t.ArrayOf = itemType
		return t, nil
	}

	t.Kind = kindComplex
	seq := n.Elem("sequence")
	if seq == nil {
		if n.Elem("all") != nil {
			seq = n.Elem("all")
		} else {
			// Empty complex type: no elements.
			return t, nil
		}
	}
	for _, el := range seq.Elems("element") {
		e, err := parseElement(el)
		if err != nil {
			return nil, fmt.Errorf("xsd: type %s: %w", name, err)
		}
		t.Elements = append(t.Elements, e)
	}
	return t, nil
}

// parseArrayRestriction extracts the item type from a SOAP-encoded
// array restriction.
func parseArrayRestriction(restr *dom.Node) (typemap.QName, error) {
	for _, attrNode := range restr.Elems("attribute") {
		at, ok := attrNode.AttrNS(WSDLNS, "arrayType")
		if !ok {
			at, ok = attrNode.Attr("wsdl:arrayType")
		}
		if ok {
			ref := strings.TrimSuffix(at, "[]")
			return resolveQName(attrNode, ref)
		}
	}
	return typemap.QName{}, fmt.Errorf("array restriction without wsdl:arrayType")
}

// parseElement parses an <xsd:element> declaration.
func parseElement(n *dom.Node) (Element, error) {
	name, ok := n.Attr("name")
	if !ok {
		return Element{}, fmt.Errorf("element without name")
	}
	typeRef, ok := n.Attr("type")
	if !ok {
		return Element{}, fmt.Errorf("element %s without type", name)
	}
	qn, err := resolveQName(n, typeRef)
	if err != nil {
		return Element{}, err
	}
	e := Element{Name: name, Type: qn, MinOccurs: 1, MaxOccurs: 1}
	if v, ok := n.Attr("minOccurs"); ok {
		if v == "0" {
			e.MinOccurs = 0
		}
	}
	if v, ok := n.Attr("maxOccurs"); ok {
		if v == "unbounded" {
			e.MaxOccurs = -1
		}
	}
	if v, ok := n.Attr("nillable"); ok && v == "true" {
		e.Nillable = true
	}
	return e, nil
}

// resolveQName resolves a prefixed type reference (e.g. "xsd:string")
// against the namespace declarations in scope at node n. Because the
// DOM keeps namespace declarations as attributes, the walk climbs
// parents looking for the binding.
func resolveQName(n *dom.Node, ref string) (typemap.QName, error) {
	prefix, local := "", ref
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		prefix, local = ref[:i], ref[i+1:]
	}
	for cur := n; cur != nil; cur = cur.Parent {
		for _, a := range cur.Attrs {
			if prefix == "" && a.Name.Prefix == "" && a.Name.Local == "xmlns" {
				return typemap.QName{Space: a.Value, Local: local}, nil
			}
			if prefix != "" && a.Name.Prefix == "xmlns" && a.Name.Local == prefix {
				return typemap.QName{Space: a.Value, Local: local}, nil
			}
		}
	}
	if prefix == "" {
		return typemap.QName{Local: local}, nil
	}
	return typemap.QName{}, fmt.Errorf("undeclared prefix %q in type reference %q", prefix, ref)
}

// IsBuiltin reports whether q names an XML Schema built-in simple type.
func IsBuiltin(q typemap.QName) bool {
	return q.Space == SchemaNS && builtin[q.Local]
}
