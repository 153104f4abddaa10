// Package xmltext implements a from-scratch XML 1.0 tokenizer and the
// low-level text utilities (escaping, name validation, entity
// resolution) used by the SAX and DOM layers.
//
// The tokenizer is deliberately independent of encoding/xml: the paper's
// cached-data representations require full control over the event stream
// (recording, replaying, and measuring the cost of parsing), so the
// entire XML path in this repository is self-contained.
//
// Supported XML subset: prolog (XML declaration), comments, processing
// instructions, DOCTYPE (skipped, internal subsets without markup
// declarations), elements with attributes, character data, CDATA
// sections, the five predefined entities and numeric character
// references. DTD-defined entities are not supported, matching the
// behaviour of a non-validating SOAP processor.
//
// The scanner's loops read one byte-class table: ASCII runs of names,
// text and attribute values are consumed by lookup, and only bytes
// >= 0x80 are decoded as UTF-8. The same lookups enforce well-formedness:
// line ends are normalised (XML 1.0 §2.11), characters outside the Char
// production and invalid UTF-8 are errors (§2.2), and names must be
// QNames (Namespaces in XML §3). An error's line is counted from its
// offset when the error is built. FuzzScannerVsStdlib holds the scanner
// to encoding/xml, up to an exception list in which each entry names
// its spec clause.
package xmltext

import "fmt"

// kind identifies the type of a token produced by the Scanner.
type kind int

// Token kinds. The zero value is invalid so that an uninitialized Token
// is never mistaken for real markup.
const (
	KindStartElement kind = iota + 1
	KindEndElement
	KindCharData
	KindComment
	KindProcInst
	KindDirective
)

// String returns a human-readable name for the token kind.
func (k kind) String() string {
	switch k {
	case KindStartElement:
		return "StartElement"
	case KindEndElement:
		return "EndElement"
	case KindCharData:
		return "CharData"
	case KindComment:
		return "Comment"
	case KindProcInst:
		return "ProcInst"
	case KindDirective:
		return "Directive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attr is a single attribute on a start-element tag. The value has all
// entity and character references resolved.
type Attr struct {
	Name  string
	Value string
	colon int32
}

// QName splits the name of an attribute the Scanner returned into its
// namespace prefix and local part, at the colon the scan recorded; the
// prefix is empty when the name has none.
func (a Attr) QName() (prefix, local string) { return splitAt(a.Name, a.colon) }

// Token is one unit of XML markup or character data.
//
// For KindStartElement, Name and Attrs are set and SelfClosing reports
// whether the tag was of the form <name/>. For KindEndElement only Name
// is set. For KindCharData, Text holds the resolved character data (CDATA
// sections are reported as CharData). For KindComment, Text holds the
// comment body. For KindProcInst, Name holds the target and Text the
// instruction. For KindDirective, Text holds the directive body
// (e.g. a DOCTYPE declaration, excluding the <! and >).
//
// Every string is an owned copy of the source bytes. Attrs is the
// scanner's buffer: it is valid until the next call to Next.
type Token struct {
	Kind        kind
	Name        string
	Text        string
	Attrs       []Attr
	SelfClosing bool
	colon       int32 // int32 keeps Token at 72 bytes, copied without duffcopy
}

// QName splits the Name of an element token the Scanner returned into
// its namespace prefix and local part, at the colon the scan recorded;
// the prefix is empty when the name has none.
func (t Token) QName() (prefix, local string) { return splitAt(t.Name, t.colon) }

// splitAt splits name at the colon index colon, 0 meaning none.
func splitAt(name string, colon int32) (prefix, local string) {
	if colon == 0 {
		return "", name
	}
	return name[:colon], name[colon+1:]
}

// syntaxError describes a well-formedness violation found while
// scanning, with the byte offset and 1-based line where it occurred.
type syntaxError struct {
	Msg    string
	Offset int
	Line   int
}

// Error implements the error interface.
func (e *syntaxError) Error() string {
	return fmt.Sprintf("xml syntax error at line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}
