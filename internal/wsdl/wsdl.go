// Package wsdl models and parses WSDL 1.1 service descriptions: the
// definitions document with its schema types, abstract messages, port
// types, SOAP bindings and service ports. The paper's middleware uses
// WSDL as the published interface description (Section 1) and the WSDL
// compiler's knowledge of the data types to pick copyable
// representations (Section 4.2.3); this package supplies that
// knowledge.
package wsdl

import (
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/typemap"
	"repro/internal/xsd"
)

// part is one part of an abstract message: a named, typed parameter.
type part struct {
	Name string
	Type typemap.QName
}

// message is an abstract WSDL message.
type message struct {
	Name  string
	Parts []part
}

// operation is an abstract operation: its input and output message
// names (local, within this definitions document).
type operation struct {
	Name   string
	Input  string
	Output string
}

// portType groups abstract operations.
type portType struct {
	Name       string
	Operations map[string]*operation
}

// bindingOperation carries the SOAP binding details of one operation.
type bindingOperation struct {
	Name       string
	SOAPAction string
	Use        string // "encoded" or "literal"
	Namespace  string
}

// binding binds a port type to SOAP over a transport.
type binding struct {
	Name       string
	PortType   string
	Style      string // "rpc" or "document"
	Transport  string
	Operations map[string]*bindingOperation
}

// port is a concrete endpoint of a service.
type port struct {
	Name     string
	Binding  string
	Location string
}

// service is a named collection of ports.
type service struct {
	Name  string
	Ports []port
}

// Definitions is a parsed WSDL document.
type Definitions struct {
	Name            string
	TargetNamespace string
	Schemas         []*xsd.Schema
	Messages        map[string]*message
	PortTypes       map[string]*portType
	Bindings        map[string]*binding
	Services        map[string]*service
}

// Parse parses a WSDL document.
func Parse(doc []byte) (*Definitions, error) {
	d, err := dom.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	return fromDOM(d)
}

// fromDOM builds Definitions from an already-parsed document.
func fromDOM(d *dom.Document) (*Definitions, error) {
	root := d.Root
	if root.Name.Space != xsd.WSDLNS || root.Name.Local != "definitions" {
		return nil, fmt.Errorf("wsdl: root element is %s, not wsdl:definitions", root.Name)
	}
	defs := &Definitions{
		Messages:  make(map[string]*message),
		PortTypes: make(map[string]*portType),
		Bindings:  make(map[string]*binding),
		Services:  make(map[string]*service),
	}
	defs.Name, _ = root.Attr("name")
	defs.TargetNamespace, _ = root.Attr("targetNamespace")

	if types := root.ElemNS(xsd.WSDLNS, "types"); types != nil {
		for _, sn := range types.Elems("schema") {
			if sn.Name.Space != xsd.SchemaNS {
				continue
			}
			s, err := xsd.ParseSchema(sn)
			if err != nil {
				return nil, fmt.Errorf("wsdl: %w", err)
			}
			defs.Schemas = append(defs.Schemas, s)
		}
	}

	for _, mn := range root.ElemsNSLocal(xsd.WSDLNS, "message") {
		m, err := parseMessage(mn)
		if err != nil {
			return nil, err
		}
		defs.Messages[m.Name] = m
	}

	for _, ptn := range root.ElemsNSLocal(xsd.WSDLNS, "portType") {
		pt, err := parsePortType(ptn)
		if err != nil {
			return nil, err
		}
		defs.PortTypes[pt.Name] = pt
	}

	for _, bn := range root.ElemsNSLocal(xsd.WSDLNS, "binding") {
		b, err := parseBinding(bn)
		if err != nil {
			return nil, err
		}
		defs.Bindings[b.Name] = b
	}

	for _, svn := range root.ElemsNSLocal(xsd.WSDLNS, "service") {
		sv, err := parseService(svn)
		if err != nil {
			return nil, err
		}
		defs.Services[sv.Name] = sv
	}

	return defs, nil
}

// Operation finds an abstract operation by name across all port types.
func (d *Definitions) Operation(name string) (*operation, bool) {
	for _, pt := range d.PortTypes {
		if op, ok := pt.Operations[name]; ok {
			return op, true
		}
	}
	return nil, false
}

// OperationIO resolves the input and output messages of an operation.
func (d *Definitions) OperationIO(name string) (in, out *message, err error) {
	op, ok := d.Operation(name)
	if !ok {
		return nil, nil, fmt.Errorf("wsdl: unknown operation %q", name)
	}
	in, ok = d.Messages[op.Input]
	if !ok {
		return nil, nil, fmt.Errorf("wsdl: operation %q references unknown input message %q", name, op.Input)
	}
	out, ok = d.Messages[op.Output]
	if !ok {
		return nil, nil, fmt.Errorf("wsdl: operation %q references unknown output message %q", name, op.Output)
	}
	return in, out, nil
}

// Endpoint returns the location of the first port of the first service,
// which is the common single-service single-port case.
func (d *Definitions) Endpoint() (string, bool) {
	for _, sv := range d.Services {
		for _, p := range sv.Ports {
			if p.Location != "" {
				return p.Location, true
			}
		}
	}
	return "", false
}

// parseMessage parses <wsdl:message>.
func parseMessage(n *dom.Node) (*message, error) {
	name, ok := n.Attr("name")
	if !ok {
		return nil, fmt.Errorf("wsdl: message without name")
	}
	m := &message{Name: name}
	for _, pn := range n.Elems("part") {
		pname, ok := pn.Attr("name")
		if !ok {
			return nil, fmt.Errorf("wsdl: message %s has part without name", name)
		}
		tref, ok := pn.Attr("type")
		if !ok {
			return nil, fmt.Errorf("wsdl: message %s part %s without type", name, pname)
		}
		qn, err := resolveRef(pn, tref)
		if err != nil {
			return nil, fmt.Errorf("wsdl: message %s: %w", name, err)
		}
		m.Parts = append(m.Parts, part{Name: pname, Type: qn})
	}
	return m, nil
}

// parsePortType parses <wsdl:portType>.
func parsePortType(n *dom.Node) (*portType, error) {
	name, ok := n.Attr("name")
	if !ok {
		return nil, fmt.Errorf("wsdl: portType without name")
	}
	pt := &portType{Name: name, Operations: make(map[string]*operation)}
	for _, on := range n.Elems("operation") {
		oname, ok := on.Attr("name")
		if !ok {
			return nil, fmt.Errorf("wsdl: portType %s has operation without name", name)
		}
		op := &operation{Name: oname}
		if in := on.Elem("input"); in != nil {
			ref, _ := in.Attr("message")
			op.Input = localRef(ref)
		}
		if out := on.Elem("output"); out != nil {
			ref, _ := out.Attr("message")
			op.Output = localRef(ref)
		}
		pt.Operations[oname] = op
	}
	return pt, nil
}

// parseBinding parses <wsdl:binding> with its soap:binding extension.
func parseBinding(n *dom.Node) (*binding, error) {
	name, ok := n.Attr("name")
	if !ok {
		return nil, fmt.Errorf("wsdl: binding without name")
	}
	typeRef, _ := n.Attr("type")
	b := &binding{
		Name:       name,
		PortType:   localRef(typeRef),
		Operations: make(map[string]*bindingOperation),
	}
	if sb := n.ElemNS(xsd.WSDLSOAPNS, "binding"); sb != nil {
		b.Style, _ = sb.Attr("style")
		b.Transport, _ = sb.Attr("transport")
	}
	for _, on := range n.Elems("operation") {
		if on.Name.Space != xsd.WSDLNS {
			continue
		}
		oname, _ := on.Attr("name")
		bo := &bindingOperation{Name: oname}
		if so := on.ElemNS(xsd.WSDLSOAPNS, "operation"); so != nil {
			bo.SOAPAction, _ = so.Attr("soapAction")
		}
		if in := on.Elem("input"); in != nil {
			if body := in.ElemNS(xsd.WSDLSOAPNS, "body"); body != nil {
				bo.Use, _ = body.Attr("use")
				bo.Namespace, _ = body.Attr("namespace")
			}
		}
		b.Operations[oname] = bo
	}
	return b, nil
}

// parseService parses <wsdl:service>.
func parseService(n *dom.Node) (*service, error) {
	name, ok := n.Attr("name")
	if !ok {
		return nil, fmt.Errorf("wsdl: service without name")
	}
	sv := &service{Name: name}
	for _, pn := range n.Elems("port") {
		pname, _ := pn.Attr("name")
		bref, _ := pn.Attr("binding")
		p := port{Name: pname, Binding: localRef(bref)}
		if addr := pn.ElemNS(xsd.WSDLSOAPNS, "address"); addr != nil {
			p.Location, _ = addr.Attr("location")
		}
		sv.Ports = append(sv.Ports, p)
	}
	return sv, nil
}

// localRef strips the prefix from a qualified reference like
// "tns:doGoogleSearch"; WSDL internal references resolve within the
// document's own target namespace.
func localRef(ref string) string {
	if i := strings.IndexByte(ref, ':'); i >= 0 {
		return ref[i+1:]
	}
	return ref
}

// resolveRef resolves a prefixed reference against in-scope namespace
// declarations by climbing the DOM.
func resolveRef(n *dom.Node, ref string) (typemap.QName, error) {
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
	return typemap.QName{}, fmt.Errorf("undeclared prefix %q in reference %q", prefix, ref)
}
