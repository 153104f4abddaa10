// Package sax provides a SAX-style streaming XML event model: a push
// parser that drives a Handler, an event Recorder and Replayer (the
// "SAX events sequence" cache representation from the paper, Section
// 4.2.2 and Table 4), and a Writer that serializes an event stream back
// to XML text. The model has the five event kinds of the paper's Table
// 4: the parser coalesces adjacent character data into one event and
// skips comments, processing instructions and DOCTYPEs.
package sax

import "fmt"

// EventKind identifies a SAX event type.
type EventKind int

// The SAX event kinds, in the vocabulary used by the paper's Table 4.
// The values are the op bytes of CompactSequence's binary form, which
// crosses process boundaries, so they never change.
const (
	StartDocument EventKind = iota + 1
	EndDocument
	StartElement
	EndElement
	Characters
)

// String returns the event kind formatted as in the paper's Table 4
// ("start document", "start element", ...).
func (k EventKind) String() string {
	switch k {
	case StartDocument:
		return "start document"
	case EndDocument:
		return "end document"
	case StartElement:
		return "start element"
	case EndElement:
		return "end element"
	case Characters:
		return "characters"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Name is a namespace-resolved XML name. Space holds the namespace URI
// in effect for the name ("" when unqualified), Prefix the lexical
// prefix used in the document, and Local the local part.
type Name struct {
	Space  string
	Prefix string
	Local  string
}

// String returns the lexical (prefixed) form of the name.
func (n Name) String() string {
	if n.Prefix == "" {
		return n.Local
	}
	return n.Prefix + ":" + n.Local
}

// Attribute is a single attribute event payload. Namespace declarations
// (xmlns and xmlns:prefix) are passed through as attributes with
// IsNamespaceDecl reporting true, so that a recorded stream can be
// serialized back to an equivalent document.
type Attribute struct {
	Name  Name
	Value string
}

// IsNamespaceDecl reports whether the attribute declares a namespace.
func (a Attribute) IsNamespaceDecl() bool {
	return a.Name.Prefix == "xmlns" || (a.Name.Prefix == "" && a.Name.Local == "xmlns")
}

// Event is one element of a recorded SAX event sequence.
//
// Field usage by kind:
//   - StartElement: Name, Attrs
//   - EndElement:   Name
//   - Characters:   Text
//   - StartDocument/EndDocument: no payload
type Event struct {
	Kind  EventKind
	Name  Name
	Attrs []Attribute
	Text  string
}

// String renders the event in the style of the paper's Table 4,
// e.g. "start element: doc" or "characters: Hello, world!".
func (e Event) String() string {
	switch e.Kind {
	case StartElement, EndElement:
		return fmt.Sprintf("%s: %s", e.Kind, e.Name)
	case Characters:
		return fmt.Sprintf("%s: %s", e.Kind, e.Text)
	default:
		return e.Kind.String()
	}
}

// Handler receives SAX events. Implementations include the SOAP
// deserializer, the DOM builder, the event Recorder, and the XML
// Writer. Any method may return an error to abort the parse.
type Handler interface {
	OnStartDocument() error
	OnEndDocument() error
	// OnStartElement receives a start tag. attrs is valid only during
	// the call: the parser reuses its backing array for the next tag,
	// so a handler that keeps it must copy it (Recorder and
	// dom.Builder do; the envelope decoder and Writer only read it).
	OnStartElement(name Name, attrs []Attribute) error
	OnEndElement(name Name) error
	OnCharacters(text string) error
}

// NopHandler implements Handler with no-ops. Embed it to implement only
// the events a handler cares about.
type NopHandler struct{}

var _ Handler = NopHandler{}

// OnStartDocument implements Handler.
func (NopHandler) OnStartDocument() error { return nil }

// OnEndDocument implements Handler.
func (NopHandler) OnEndDocument() error { return nil }

// OnStartElement implements Handler.
func (NopHandler) OnStartElement(Name, []Attribute) error { return nil }

// OnEndElement implements Handler.
func (NopHandler) OnEndElement(Name) error { return nil }

// OnCharacters implements Handler.
func (NopHandler) OnCharacters(string) error { return nil }
