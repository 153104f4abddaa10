package sax

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/xmltext"
)

// xmlNamespaceURI is the URI bound to the reserved "xml" prefix.
const xmlNamespaceURI = "http://www.w3.org/XML/1998/namespace"

// parser is a push parser: it tokenizes a document with
// xmltext.Scanner, performs namespace resolution, and drives a Handler.
// Adjacent character-data runs (CDATA included) reach the Handler as
// one OnCharacters event; comments, processing instructions and
// DOCTYPEs are skipped. It owns its scanner, namespace stack and
// attribute buffer and reuses them from one document to the next, so a
// parser is not safe for concurrent use; Parse draws parsers from a
// pool.
type parser struct {
	sc          xmltext.Scanner
	ns          namespaceStack
	attrs       []Attribute
	pendingText []string
}

// NewParser returns a parser of its own, outside Parse's pool.
//
//lint:ignore api soap's TestDecodeEnvelopeAllocs owns one: the race detector empties the pool at random
func NewParser() *parser { return &parser{} }

// Parse parses the document and delivers its events to h. It returns
// the first error from the scanner or the handler. When Parse returns,
// the parser holds no reference to doc.
func (p *parser) Parse(doc []byte, h Handler) error {
	p.sc.Reset(doc)
	p.ns.reset()
	err := p.parse(h)
	p.sc.Reset(nil)
	clear(p.attrs[:cap(p.attrs)])
	clear(p.pendingText[:cap(p.pendingText)])
	p.pendingText = p.pendingText[:0]
	return err
}

func (p *parser) parse(h Handler) error {
	if err := h.OnStartDocument(); err != nil {
		return err
	}
	for {
		tok, err := p.sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltext.KindCharData:
			p.pendingText = append(p.pendingText, tok.Text)
		case xmltext.KindStartElement:
			if err := p.flushText(h); err != nil {
				return err
			}
			p.ns.push(tok.Attrs)
			name, attrs, err := p.resolve(tok)
			if err != nil {
				return err
			}
			if err := h.OnStartElement(name, attrs); err != nil {
				return err
			}
		case xmltext.KindEndElement:
			if err := p.flushText(h); err != nil {
				return err
			}
			prefix, local := tok.QName()
			name, err := p.ns.resolveName(tok.Name, prefix, local, true)
			if err != nil {
				return err
			}
			if err := h.OnEndElement(name); err != nil {
				return err
			}
			p.ns.pop()
		case xmltext.KindComment, xmltext.KindProcInst:
			// Skipped, the XML declaration among them, but each ends
			// the text run before it.
			if err := p.flushText(h); err != nil {
				return err
			}
		case xmltext.KindDirective:
			// DOCTYPE declarations are accepted and skipped.
		}
	}
	if err := p.flushText(h); err != nil {
		return err
	}
	return h.OnEndDocument()
}

// flushText delivers the character data coalesced since the last
// markup as one event.
func (p *parser) flushText(h Handler) error {
	if len(p.pendingText) == 0 {
		return nil
	}
	var text string
	if len(p.pendingText) == 1 {
		text = p.pendingText[0]
	} else {
		text = joinStrings(p.pendingText)
	}
	p.pendingText = p.pendingText[:0]
	return h.OnCharacters(text)
}

// parserPool holds the parsers Parse uses.
var parserPool = sync.Pool{New: func() any { return NewParser() }}

// Parse parses doc with a pooled parser and delivers the events to h.
func Parse(doc []byte, h Handler) error {
	p := parserPool.Get().(*parser)
	err := p.Parse(doc, h)
	parserPool.Put(p)
	return err
}

// joinStrings concatenates parts with a single allocation.
func joinStrings(parts []string) string {
	n := 0
	for _, s := range parts {
		n += len(s)
	}
	buf := make([]byte, 0, n)
	for _, s := range parts {
		buf = append(buf, s...)
	}
	return string(buf)
}

// namespaceStack tracks in-scope prefix bindings across nested
// elements.
type namespaceStack struct {
	// bindings is a flat stack of prefix/URI pairs; frames records how
	// many bindings each open element added, so pop is O(added).
	bindings []binding
	frames   []int
}

type binding struct {
	prefix string
	uri    string
}

// reset empties the stack down to the predeclared xml prefix.
func (ns *namespaceStack) reset() {
	ns.bindings = append(ns.bindings[:0], binding{prefix: "xml", uri: xmlNamespaceURI})
	ns.frames = ns.frames[:0]
}

// push opens a scope for a start tag, registering any xmlns
// declarations found in attrs.
func (ns *namespaceStack) push(attrs []xmltext.Attr) {
	added := 0
	for _, a := range attrs {
		prefix, local := a.QName()
		switch {
		case prefix == "" && local == "xmlns":
			ns.bindings = append(ns.bindings, binding{prefix: "", uri: a.Value})
			added++
		case prefix == "xmlns":
			ns.bindings = append(ns.bindings, binding{prefix: local, uri: a.Value})
			added++
		}
	}
	ns.frames = append(ns.frames, added)
}

// pop closes the scope for an end tag.
func (ns *namespaceStack) pop() {
	if len(ns.frames) == 0 {
		return
	}
	added := ns.frames[len(ns.frames)-1]
	ns.frames = ns.frames[:len(ns.frames)-1]
	ns.bindings = ns.bindings[:len(ns.bindings)-added]
}

// lookup returns the URI bound to prefix, with ok=false when unbound.
func (ns *namespaceStack) lookup(prefix string) (string, bool) {
	for i := len(ns.bindings) - 1; i >= 0; i-- {
		if ns.bindings[i].prefix == prefix {
			return ns.bindings[i].uri, true
		}
	}
	if prefix == "" {
		// No default namespace in scope: unqualified.
		return "", true
	}
	return "", false
}

// resolveName resolves a raw (possibly prefixed) name, split into
// prefix and local part, against the current scope. When isElement is
// true an empty prefix resolves against the default namespace;
// attributes without a prefix are always unqualified.
func (ns *namespaceStack) resolveName(raw, prefix, local string, isElement bool) (Name, error) {
	if prefix == "" && !isElement {
		return Name{Local: local}, nil
	}
	uri, ok := ns.lookup(prefix)
	if !ok {
		return Name{}, fmt.Errorf("sax: undeclared namespace prefix %q in name %q", prefix, raw)
	}
	return Name{Space: uri, Prefix: prefix, Local: local}, nil
}

// resolve resolves a start-element token: its element name and all its
// attributes, passing namespace declarations through unresolved. The
// attributes are the parser's buffer, valid until the next start tag.
func (p *parser) resolve(tok xmltext.Token) (Name, []Attribute, error) {
	prefix, local := tok.QName()
	name, err := p.ns.resolveName(tok.Name, prefix, local, true)
	if err != nil {
		return Name{}, nil, err
	}
	if len(tok.Attrs) == 0 {
		return name, nil, nil
	}
	attrs := p.attrs[:0]
	for _, a := range tok.Attrs {
		prefix, local := a.QName()
		if (prefix == "" && local == "xmlns") || prefix == "xmlns" {
			attrs = append(attrs, Attribute{
				Name:  Name{Prefix: prefix, Local: local},
				Value: a.Value,
			})
			continue
		}
		rn, err := p.ns.resolveName(a.Name, prefix, local, false)
		if err != nil {
			return Name{}, nil, err
		}
		attrs = append(attrs, Attribute{Name: rn, Value: a.Value})
	}
	p.attrs = attrs
	return name, attrs, nil
}
