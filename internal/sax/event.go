// Package sax provides a SAX-style streaming XML event model: a push
// parser that drives a Handler, Record and Replay (the "SAX events
// sequence" cache representation from the paper, Section 4.2.2 and
// Table 4), and a writer that serializes an event stream back to XML
// text. The model has the five event kinds of the paper's Table
// 4: the parser coalesces adjacent character data into one event and
// skips comments, processing instructions and DOCTYPEs.
package sax

import "fmt"

// eventKind identifies a SAX event type.
type eventKind int

// The SAX event kinds, in the vocabulary used by the paper's Table 4.
// The values are the op bytes of CompactSequence's binary form, which
// crosses process boundaries, so they never change.
const (
	StartDocument eventKind = iota + 1
	EndDocument
	StartElement
	EndElement
	Characters
)

// String returns the event kind formatted as in the paper's Table 4
// ("start document", "start element", ...).
func (k eventKind) String() string {
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
// Attribute is a single attribute event payload. Namespace declarations
// (xmlns and xmlns:prefix) are passed through as attributes, so that a
// recorded stream can be serialized back to an equivalent document.
type Attribute struct {
	Name  Name
	Value string
}

// Event is one element of a recorded SAX event sequence.
//
// Field usage by kind:
//   - StartElement: Name, Attrs
//   - EndElement:   Name
//   - Characters:   Text
//   - StartDocument/EndDocument: no payload
type Event struct {
	Kind  eventKind
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
// deserializer, the DOM builder, the event recorder, and the XML
// writer. Any method may return an error to abort the parse.
type Handler interface {
	OnStartDocument() error
	OnEndDocument() error
	// OnStartElement receives a start tag. attrs is valid only during
	// the call: the parser reuses its backing array for the next tag,
	// so a handler that keeps it must copy it (the recorder
	// and dom's tree builder do; the envelope decoder and the writer only
	// read it).
	OnStartElement(name Name, attrs []Attribute) error
	OnEndElement(name Name) error
	OnCharacters(text string) error
}
