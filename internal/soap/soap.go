// Package soap implements SOAP 1.1 message processing in the
// rpc/encoded style used by the Google Web APIs the paper evaluates:
// envelope construction, a reflection-driven serializer from Go
// application objects to SOAP XML, and a streaming deserializer that
// consumes SAX events and constructs application objects.
//
// The deserializer consuming events (rather than a DOM) is load-bearing
// for the paper's architecture: a cache hit on a stored SAX event
// sequence replays the recorded events straight into this deserializer,
// paying deserialization cost but not tokenization cost (Section
// 4.2.2).
package soap

import (
	"fmt"

	"repro/internal/typemap"
)

// Namespace URIs for SOAP 1.1 processing.
const (
	envNS      = "http://schemas.xmlsoap.org/soap/envelope/"
	encNS      = "http://schemas.xmlsoap.org/soap/encoding/"
	schemaNS   = "http://www.w3.org/2001/XMLSchema"
	instanceNS = "http://www.w3.org/2001/XMLSchema-instance"
)

// Standard prefixes the codec declares on every envelope.
const (
	envPrefix    = "soapenv"
	encPrefix    = "soapenc"
	xsdPrefix    = "xsd"
	xsiPrefix    = "xsi"
	targetPrefix = "ns1"
)

// Param is a named parameter of an rpc-style operation: one child
// element of the operation wrapper.
type Param struct {
	Name  string
	Value any
}

// Fault is a SOAP 1.1 fault. It implements error so transport and
// client layers can return it directly.
type Fault struct {
	Code   string // e.g. "soapenv:Server"
	String string // human-readable fault string
	Actor  string
	Detail string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// Codec serializes and deserializes SOAP messages using a typemap
// registry for application-object types.
type Codec struct {
	reg *typemap.Registry
}

// NewCodec returns a Codec backed by reg.
func NewCodec(reg *typemap.Registry) *Codec {
	return &Codec{reg: reg}
}

// Registry returns the codec's type registry.
func (c *Codec) Registry() *typemap.Registry { return c.reg }
