package soap

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"reflect"
	"strconv"
	"sync"

	"repro/internal/typemap"
	"repro/internal/xmltext"
)

// encoder writes one envelope into b. It tracks namespace prefixes:
// the five standard namespaces plus the target (service) namespace are
// declared on the envelope; any further namespaces get fresh nsN
// prefixes declared at first use, recorded in minted.
//
// Encoders are pooled (encoderPool): reset clears the buffer and the
// minted prefixes, so an envelope never inherits a declaration from the
// one encoded before it, including one whose encode failed halfway.
type encoder struct {
	b        bytes.Buffer
	reg      *typemap.Registry
	targetNS string
	minted   []mintedPrefix
}

// mintedPrefix binds a namespace beyond the standard set to its nsN
// prefix.
type mintedPrefix struct {
	uri, prefix string
}

// maxPooledEnvelope bounds the buffer an encoder keeps when it goes
// back to the pool, so one huge envelope does not pin its buffer for
// the life of the process.
const maxPooledEnvelope = 256 << 10

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// getEncoder takes an encoder from the pool, reset for targetNS.
func (c *Codec) getEncoder(targetNS string) *encoder {
	e := encoderPool.Get().(*encoder)
	e.reset(c.reg, targetNS)
	return e
}

// putEncoder returns e to the pool. The caller must no longer use
// e.b's bytes.
func putEncoder(e *encoder) {
	if e.b.Cap() > maxPooledEnvelope {
		e.b = bytes.Buffer{}
	}
	e.reg = nil
	encoderPool.Put(e)
}

// reset readies e for a new envelope in targetNS.
func (e *encoder) reset(reg *typemap.Registry, targetNS string) {
	e.b.Reset()
	e.reg = reg
	e.targetNS = targetNS
	clear(e.minted)
	e.minted = e.minted[:0]
}

// EncodeRequest serializes an rpc/encoded request envelope for the
// operation in the given target namespace.
func (c *Codec) EncodeRequest(targetNS, operation string, params []Param) ([]byte, error) {
	e := c.getEncoder(targetNS)
	defer putEncoder(e)
	if err := e.call(operation, false, params); err != nil {
		return nil, err
	}
	return bytes.Clone(e.b.Bytes()), nil
}

// EncodeResponse serializes an rpc/encoded response envelope. By
// convention the wrapper element is operation+"Response" and the single
// part is named "return".
func (c *Codec) EncodeResponse(targetNS, operation string, result any) ([]byte, error) {
	e := c.getEncoder(targetNS)
	defer putEncoder(e)
	if err := e.response(operation, result); err != nil {
		return nil, err
	}
	return bytes.Clone(e.b.Bytes()), nil
}

// WriteResponse serializes an rpc/encoded response envelope, as
// EncodeResponse does, and hands it to write without copying it out of
// the encoder's pooled buffer. The envelope is built fully before write
// is called, so an encode error reaches the caller before any byte has
// gone out (a server can still send a fault); write is not called then.
// The slice is valid only until write returns and must not be retained.
func (c *Codec) WriteResponse(targetNS, operation string, result any, write func(envelope []byte)) error {
	e := c.getEncoder(targetNS)
	defer putEncoder(e)
	if err := e.response(operation, result); err != nil {
		return err
	}
	write(e.b.Bytes())
	return nil
}

// EncodeFault serializes a SOAP fault envelope.
func (c *Codec) EncodeFault(f *Fault) ([]byte, error) {
	e := c.getEncoder("")
	defer putEncoder(e)
	e.openEnvelope()
	e.b.WriteString("<" + envPrefix + ":Fault>")
	e.simpleChild("faultcode", f.Code)
	e.simpleChild("faultstring", f.String)
	if f.Actor != "" {
		e.simpleChild("faultactor", f.Actor)
	}
	if f.Detail != "" {
		e.simpleChild("detail", f.Detail)
	}
	e.b.WriteString("</" + envPrefix + ":Fault>")
	e.closeEnvelope()
	return bytes.Clone(e.b.Bytes()), nil
}

// response writes a response envelope: the wrapper element is
// operation+"Response" and the single part is named "return".
func (e *encoder) response(operationName string, result any) error {
	return e.call(operationName, true, []Param{{Name: "return", Value: result}})
}

// call writes a full envelope whose Body holds one wrapper element
// containing the given params: the operation's element, or on a response
// operation+"Response".
func (e *encoder) call(operationName string, response bool, params []Param) error {
	e.openEnvelope()
	e.b.WriteByte('<')
	e.wrapperName(operationName, response)
	e.b.WriteString(" " + envPrefix + `:encodingStyle="` + EncNS + `">`)
	for _, p := range params {
		if err := e.value(p.Name, p.Value); err != nil {
			if response {
				operationName += "Response"
			}
			return fmt.Errorf("soap: encode %s.%s: %w", operationName, p.Name, err)
		}
	}
	e.b.WriteString("</")
	e.wrapperName(operationName, response)
	e.b.WriteByte('>')
	e.closeEnvelope()
	return nil
}

// wrapperName writes the wrapper element's qualified name.
func (e *encoder) wrapperName(operationName string, response bool) {
	if e.targetNS != "" {
		e.b.WriteString(targetPrefix + ":")
	}
	e.b.WriteString(operationName)
	if response {
		e.b.WriteString("Response")
	}
}

// openEnvelope writes the envelope and body start tags with the
// standard namespace declarations.
func (e *encoder) openEnvelope() {
	e.b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>`)
	e.b.WriteString("<" + envPrefix + ":Envelope")
	e.decl(envPrefix, EnvNS)
	e.decl(encPrefix, EncNS)
	e.decl(xsdPrefix, SchemaNS)
	e.decl(xsiPrefix, InstanceNS)
	if e.targetNS != "" {
		e.decl(targetPrefix, e.targetNS)
	}
	e.b.WriteString("><" + envPrefix + ":Body>")
}

// closeEnvelope writes the body and envelope end tags.
func (e *encoder) closeEnvelope() {
	e.b.WriteString("</" + envPrefix + ":Body></" + envPrefix + ":Envelope>")
}

// decl writes an xmlns declaration.
func (e *encoder) decl(prefix, uri string) {
	e.b.WriteString(` xmlns:`)
	e.b.WriteString(prefix)
	e.b.WriteString(`="`)
	xmltext.EscapeAttr(&e.b, uri)
	e.b.WriteByte('"')
}

// simpleChild writes an untyped simple element (used in faults).
func (e *encoder) simpleChild(name, text string) {
	e.startTag(name)
	e.b.WriteByte('>')
	xmltext.EscapeText(&e.b, text)
	e.endTag(name)
}

// startTag writes "<name", leaving the tag open for attributes.
func (e *encoder) startTag(name string) {
	e.b.WriteByte('<')
	e.b.WriteString(name)
}

// endTag writes "</name>".
func (e *encoder) endTag(name string) {
	e.b.WriteString("</")
	e.b.WriteString(name)
	e.b.WriteByte('>')
}

// nilElement writes <name xsi:nil="true"/>.
func (e *encoder) nilElement(name string) {
	e.startTag(name)
	e.b.WriteString(" " + xsiPrefix + `:nil="true"/>`)
}

// prefixFor returns the prefix for a namespace URI. An unseen one gets
// a fresh nsN prefix, declared on the start tag being written, which
// must still be open.
func (e *encoder) prefixFor(uri string) string {
	if uri == e.targetNS {
		return targetPrefix
	}
	switch uri {
	case EnvNS:
		return envPrefix
	case EncNS:
		return encPrefix
	case SchemaNS:
		return xsdPrefix
	case InstanceNS:
		return xsiPrefix
	}
	for _, m := range e.minted {
		if m.uri == uri {
			return m.prefix
		}
	}
	prefix := "ns" + strconv.Itoa(len(e.minted)+2)
	e.minted = append(e.minted, mintedPrefix{uri: uri, prefix: prefix})
	e.decl(prefix, uri)
	return prefix
}

// qref writes a QName as prefix:local. Its prefix must already be
// bound (see prefixFor).
func (e *encoder) qref(prefix, local string) {
	if prefix != "" {
		e.b.WriteString(prefix)
		e.b.WriteByte(':')
	}
	e.b.WriteString(local)
}

// value encodes one named value as an element with xsi:type.
func (e *encoder) value(name string, v any) error {
	if v == nil {
		e.nilElement(name)
		return nil
	}
	rv := reflect.ValueOf(v)
	return e.reflectValue(name, rv)
}

// reflectValue dispatches on the reflected kind of rv. Numbers are
// appended straight into the buffer's free space, so a simple value
// costs no string of its own.
func (e *encoder) reflectValue(name string, rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			e.nilElement(name)
			return nil
		}
		return e.reflectValue(name, rv.Elem())

	case reflect.String:
		e.openSimple(name, "string")
		xmltext.EscapeText(&e.b, rv.String())
	case reflect.Bool:
		e.openSimple(name, "boolean")
		e.b.Write(strconv.AppendBool(e.b.AvailableBuffer(), rv.Bool()))
	case reflect.Int, reflect.Int32:
		e.openSimple(name, "int")
		e.b.Write(strconv.AppendInt(e.b.AvailableBuffer(), rv.Int(), 10))
	case reflect.Int8:
		e.openSimple(name, "byte")
		e.b.Write(strconv.AppendInt(e.b.AvailableBuffer(), rv.Int(), 10))
	case reflect.Int16:
		e.openSimple(name, "short")
		e.b.Write(strconv.AppendInt(e.b.AvailableBuffer(), rv.Int(), 10))
	case reflect.Int64:
		e.openSimple(name, "long")
		e.b.Write(strconv.AppendInt(e.b.AvailableBuffer(), rv.Int(), 10))
	case reflect.Uint, reflect.Uint16, reflect.Uint32:
		e.openSimple(name, "unsignedInt")
		e.b.Write(strconv.AppendUint(e.b.AvailableBuffer(), rv.Uint(), 10))
	case reflect.Uint64:
		e.openSimple(name, "unsignedLong")
		e.b.Write(strconv.AppendUint(e.b.AvailableBuffer(), rv.Uint(), 10))
	case reflect.Float32:
		e.openSimple(name, "float")
		e.b.Write(strconv.AppendFloat(e.b.AvailableBuffer(), rv.Float(), 'g', -1, 32))
	case reflect.Float64:
		e.openSimple(name, "double")
		e.b.Write(strconv.AppendFloat(e.b.AvailableBuffer(), rv.Float(), 'g', -1, 64))

	case reflect.Slice, reflect.Array:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			e.encodeBytes(name, rv)
			return nil
		}
		return e.encodeArray(name, rv)

	case reflect.Struct:
		return e.encodeStruct(name, rv)

	default:
		return fmt.Errorf("unsupported kind %s", rv.Kind())
	}
	e.endTag(name)
	return nil
}

// openSimple writes <name xsi:type="xsd:local">; the caller writes the
// escaped content and the end tag.
func (e *encoder) openSimple(name, xsdLocal string) {
	e.startTag(name)
	e.b.WriteString(" " + xsiPrefix + `:type="` + xsdPrefix + ":")
	e.b.WriteString(xsdLocal)
	e.b.WriteString(`">`)
}

// encodeBytes writes a base64Binary element.
func (e *encoder) encodeBytes(name string, rv reflect.Value) {
	var data []byte
	if rv.Kind() == reflect.Slice {
		data = rv.Bytes()
	} else {
		data = make([]byte, rv.Len())
		reflect.Copy(reflect.ValueOf(data), rv)
	}
	e.openSimple(name, "base64Binary")
	e.b.Write(base64.StdEncoding.AppendEncode(e.b.AvailableBuffer(), data))
	e.endTag(name)
}

// encodeArray writes a SOAP-encoded array with soapenc:arrayType.
func (e *encoder) encodeArray(name string, rv reflect.Value) error {
	e.startTag(name)
	e.b.WriteString(" " + xsiPrefix + `:type="` + encPrefix + `:Array"`)
	itemPrefix, itemLocal, err := e.typeRefFor(rv.Type().Elem())
	if err != nil {
		return fmt.Errorf("array %s: %w", name, err)
	}
	e.b.WriteString(" " + encPrefix + `:arrayType="`)
	e.qref(itemPrefix, itemLocal)
	e.b.WriteByte('[')
	e.b.Write(strconv.AppendInt(e.b.AvailableBuffer(), int64(rv.Len()), 10))
	e.b.WriteString(`]">`)
	for i := 0; i < rv.Len(); i++ {
		if err := e.reflectValue("item", rv.Index(i)); err != nil {
			return fmt.Errorf("array %s[%d]: %w", name, i, err)
		}
	}
	e.endTag(name)
	return nil
}

// encodeStruct writes a registered complex type with its bean fields as
// child elements.
func (e *encoder) encodeStruct(name string, rv reflect.Value) error {
	t := rv.Type()
	q, ok := e.reg.NameForType(t)
	if !ok {
		return fmt.Errorf("struct type %s is not registered", t)
	}
	e.startTag(name)
	typePrefix := ""
	if q.Space != "" {
		typePrefix = e.prefixFor(q.Space)
	}
	e.b.WriteString(" " + xsiPrefix + `:type="`)
	e.qref(typePrefix, q.Local)
	e.b.WriteString(`">`)
	info := e.reg.InfoForType(t)
	for _, f := range info.Fields {
		if err := e.reflectValue(f.XMLName, rv.Field(f.Index)); err != nil {
			return fmt.Errorf("field %s.%s: %w", t, f.GoName, err)
		}
	}
	e.endTag(name)
	return nil
}

// typeRefFor resolves the xsi type reference for a Go type (used for
// array item types) as a prefix and local name. A struct type in a
// namespace not yet in scope has its declaration written onto the open
// start tag.
func (e *encoder) typeRefFor(t reflect.Type) (prefix, local string, err error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.String:
		return xsdPrefix, "string", nil
	case reflect.Bool:
		return xsdPrefix, "boolean", nil
	case reflect.Int, reflect.Int32:
		return xsdPrefix, "int", nil
	case reflect.Int8:
		return xsdPrefix, "byte", nil
	case reflect.Int16:
		return xsdPrefix, "short", nil
	case reflect.Int64:
		return xsdPrefix, "long", nil
	case reflect.Uint, reflect.Uint16, reflect.Uint32:
		return xsdPrefix, "unsignedInt", nil
	case reflect.Uint64:
		return xsdPrefix, "unsignedLong", nil
	case reflect.Float32:
		return xsdPrefix, "float", nil
	case reflect.Float64:
		return xsdPrefix, "double", nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return xsdPrefix, "base64Binary", nil
		}
		return encPrefix, "Array", nil
	case reflect.Struct:
		q, ok := e.reg.NameForType(t)
		if !ok {
			return "", "", fmt.Errorf("struct type %s is not registered", t)
		}
		if q.Space == "" {
			return "", q.Local, nil
		}
		return e.prefixFor(q.Space), q.Local, nil
	default:
		return "", "", fmt.Errorf("unsupported array item kind %s", t.Kind())
	}
}
