// Package dom implements a lightweight DOM: a tree-shaped post-parsing
// representation of an XML document. The paper names DOM trees (along
// with SAX event sequences) as the post-parsing representations a cache
// can store instead of raw XML text (Section 3.3).
//
// The tree is built from a SAX event stream and replays as one, so
// every component that consumes events (e.g. the SOAP deserializer)
// can also consume a DOM tree. It holds elements and text only: the sax
// parser reports no comments or processing instructions.
package dom

import (
	"fmt"

	"repro/internal/sax"
)

// nodeKind identifies the type of a Node.
type nodeKind int

// Node kinds.
const (
	ElementNode nodeKind = iota + 1
	textNode
)

// Node is a node in the document tree. Element nodes have a Name,
// Attrs and Children; text nodes carry Text.
type Node struct {
	Kind     nodeKind
	Name     sax.Name
	Attrs    []sax.Attribute
	Text     string
	Children []*Node
	Parent   *Node
}

// Document is a parsed XML document.
type Document struct {
	Root *Node
}

// Parse parses an XML document into a DOM tree.
func Parse(doc []byte) (*Document, error) {
	b := &builder{}
	if err := sax.Parse(doc, b); err != nil {
		return nil, err
	}
	return b.document()
}

// FromEvents builds a DOM tree from a recorded SAX event sequence.
func FromEvents(events []sax.Event) (*Document, error) {
	b := &builder{}
	if err := sax.Replay(events, b); err != nil {
		return nil, err
	}
	return b.document()
}

// Elem returns the first child element with the given local name (any
// namespace), or nil.
func (n *Node) Elem(local string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name.Local == local {
			return c
		}
	}
	return nil
}

// ElemNS returns the first child element matching both namespace URI
// and local name, or nil.
func (n *Node) ElemNS(space, local string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name.Space == space && c.Name.Local == local {
			return c
		}
	}
	return nil
}

// Elems returns all child elements with the given local name; with
// local "" it returns all child elements.
func (n *Node) Elems(local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && (local == "" || c.Name.Local == local) {
			out = append(out, c)
		}
	}
	return out
}

// ElemsNSLocal returns all child elements matching both namespace URI
// and local name.
func (n *Node) ElemsNSLocal(space, local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name.Space == space && c.Name.Local == local {
			out = append(out, c)
		}
	}
	return out
}

// Attr returns the value of the named attribute and whether it exists.
// The lookup matches the attribute's lexical name (prefix:local or
// plain local).
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name.String() == name || a.Name.Local == name && a.Name.Prefix == "" {
			return a.Value, true
		}
	}
	return "", false
}

// AttrNS returns the value of the attribute with the given namespace
// URI and local name.
func (n *Node) AttrNS(space, local string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AppendChild adds c as the last child of n and sets its parent.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

func (n *Node) appendEvents(out *[]sax.Event) {
	switch n.Kind {
	case ElementNode:
		*out = append(*out, sax.Event{Kind: sax.StartElement, Name: n.Name, Attrs: n.Attrs})
		for _, c := range n.Children {
			c.appendEvents(out)
		}
		*out = append(*out, sax.Event{Kind: sax.EndElement, Name: n.Name})
	case textNode:
		*out = append(*out, sax.Event{Kind: sax.Characters, Text: n.Text})
	}
}

// Events converts the whole document into a SAX event sequence,
// bracketed by StartDocument and EndDocument.
func (d *Document) Events() []sax.Event {
	out := []sax.Event{{Kind: sax.StartDocument}}
	if d.Root != nil {
		d.Root.appendEvents(&out)
	}
	out = append(out, sax.Event{Kind: sax.EndDocument})
	return out
}

// Replay streams the document to a sax.Handler by walking the tree,
// without materializing an event slice: the cheap replay path for
// DOM-tree cache payloads.
func (d *Document) Replay(h sax.Handler) error {
	if err := h.OnStartDocument(); err != nil {
		return err
	}
	if d.Root != nil {
		if err := d.Root.visit(h); err != nil {
			return err
		}
	}
	return h.OnEndDocument()
}

// visit streams the subtree rooted at n to a sax.Handler.
func (n *Node) visit(h sax.Handler) error {
	switch n.Kind {
	case ElementNode:
		if err := h.OnStartElement(n.Name, n.Attrs); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := c.visit(h); err != nil {
				return err
			}
		}
		return h.OnEndElement(n.Name)
	case textNode:
		return h.OnCharacters(n.Text)
	default:
		return fmt.Errorf("dom: unknown node kind %d", n.Kind)
	}
}

// Clone returns a deep copy of the subtree rooted at n. The copy's
// Parent is nil.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]sax.Attribute, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, child := range n.Children {
		c.AppendChild(child.Clone())
	}
	return c
}

// builder is a sax.Handler that constructs a Document.
type builder struct {
	doc   Document
	stack []*Node
	done  bool
	err   error
}

var _ sax.Handler = (*builder)(nil)

// document returns the built document. It errors if the event stream
// was incomplete.
func (b *builder) document() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.done {
		return nil, fmt.Errorf("dom: event stream ended before EndDocument")
	}
	if b.doc.Root == nil {
		return nil, fmt.Errorf("dom: document has no root element")
	}
	return &b.doc, nil
}

// OnStartDocument implements sax.Handler.
func (b *builder) OnStartDocument() error { return nil }

// OnEndDocument implements sax.Handler.
func (b *builder) OnEndDocument() error {
	if len(b.stack) != 0 {
		return fmt.Errorf("dom: EndDocument with %d unclosed element(s)", len(b.stack))
	}
	b.done = true
	return nil
}

// OnStartElement implements sax.Handler.
func (b *builder) OnStartElement(name sax.Name, attrs []sax.Attribute) error {
	n := &Node{Kind: ElementNode, Name: name}
	if len(attrs) > 0 {
		n.Attrs = make([]sax.Attribute, len(attrs))
		copy(n.Attrs, attrs)
	}
	if len(b.stack) == 0 {
		if b.doc.Root != nil {
			return fmt.Errorf("dom: multiple root elements")
		}
		b.doc.Root = n
	} else {
		b.stack[len(b.stack)-1].AppendChild(n)
	}
	b.stack = append(b.stack, n)
	return nil
}

// OnEndElement implements sax.Handler.
func (b *builder) OnEndElement(name sax.Name) error {
	if len(b.stack) == 0 {
		return fmt.Errorf("dom: end element </%s> with no open element", name)
	}
	top := b.stack[len(b.stack)-1]
	if top.Name != name {
		return fmt.Errorf("dom: end element </%s> does not match <%s>", name, top.Name)
	}
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// OnCharacters implements sax.Handler.
func (b *builder) OnCharacters(text string) error {
	if len(b.stack) == 0 {
		// Whitespace outside the root is insignificant.
		return nil
	}
	b.stack[len(b.stack)-1].AppendChild(&Node{Kind: textNode, Text: text})
	return nil
}
