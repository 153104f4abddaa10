package soap

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/sax"
)

// Apache Axis 1.x serializes rpc/encoded responses with multi-reference
// encoding by default: a value element carries href="#id0" and the
// actual content lives in a top-level <multiRef id="id0"> sibling of
// the rpc wrapper inside the Body. The streaming decoder cannot resolve
// forward references, so envelopes containing hrefs take a structural
// pre-pass: build the DOM, splice every referenced subtree into place,
// then run the ordinary streaming decode over the resolved event
// stream. The cost is paid only for messages that actually use hrefs —
// exactly the messages a 2004 Axis server would send.

// hasHref cheaply detects multi-reference encoding in a raw document:
// href, then '=' and an opening quote of either kind before '#', with
// the optional whitespace XML allows around the '=' (S? '=' S?). One
// pass, no allocation: it runs on every miss.
func hasHref(doc []byte) bool {
	for {
		i := bytes.Index(doc, []byte("href"))
		if i < 0 {
			return false
		}
		doc = doc[i+len("href"):]
		j := skipSpace(doc, 0)
		if j == len(doc) || doc[j] != '=' {
			continue
		}
		j = skipSpace(doc, j+1)
		if j+1 < len(doc) && (doc[j] == '"' || doc[j] == '\'') && doc[j+1] == '#' {
			return true
		}
	}
}

// skipSpace returns the index of the first byte at or after i in b
// that is not XML whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// EventsHaveHref reports whether a recorded event stream uses
// multi-reference encoding. Cache value stores that replay events
// through the streaming decoder directly must route href-bearing
// streams through DecodeEnvelopeEvents instead.
func EventsHaveHref(events []sax.Event) bool {
	return eventsHaveHref(events)
}

// eventsHaveHref detects multi-reference encoding in a recorded stream.
func eventsHaveHref(events []sax.Event) bool {
	for i := range events {
		if events[i].Kind != sax.StartElement {
			continue
		}
		for _, a := range events[i].Attrs {
			if a.Name.Local == "href" && a.Name.Prefix == "" && strings.HasPrefix(a.Value, "#") {
				return true
			}
		}
	}
	return false
}

// resolveMultiRef rewrites a DOM envelope with all hrefs replaced by
// the referenced content and multiRef carriers removed.
func resolveMultiRef(d *dom.Document) error {
	body := d.Root.ElemNS(envNS, "Body")
	if body == nil {
		return fmt.Errorf("soap: multiref: envelope has no Body")
	}

	// Index the id-bearing Body children (the multiRef carriers) and
	// find the rpc wrapper (the child without an id).
	carriers := make(map[string]*dom.Node)
	var kept []*dom.Node
	for _, child := range body.Children {
		if child.Kind != dom.ElementNode {
			kept = append(kept, child)
			continue
		}
		if id, ok := child.Attr("id"); ok && id != "" {
			carriers[id] = child
			continue
		}
		kept = append(kept, child)
	}
	body.Children = kept

	// Ids can also appear on nested elements (Axis emits them for
	// shared strings); index those too.
	for _, c := range carriers {
		indexNestedIDs(c, carriers)
	}
	for _, child := range kept {
		indexNestedIDs(child, carriers)
	}

	for _, child := range body.Children {
		if child.Kind == dom.ElementNode {
			if err := spliceRefs(child, carriers, make(map[string]bool)); err != nil {
				return err
			}
		}
	}
	return nil
}

// indexNestedIDs registers descendant elements that carry id
// attributes.
func indexNestedIDs(n *dom.Node, carriers map[string]*dom.Node) {
	for _, c := range n.Children {
		if c.Kind != dom.ElementNode {
			continue
		}
		if id, ok := c.Attr("id"); ok && id != "" {
			if _, exists := carriers[id]; !exists {
				carriers[id] = c
			}
		}
		indexNestedIDs(c, carriers)
	}
}

// spliceRefs recursively replaces href references under n with the
// referenced content. active guards against reference cycles.
func spliceRefs(n *dom.Node, carriers map[string]*dom.Node, active map[string]bool) error {
	if ref, ok := n.Attr("href"); ok && strings.HasPrefix(ref, "#") {
		id := ref[1:]
		carrier, ok := carriers[id]
		if !ok {
			return fmt.Errorf("soap: multiref: unresolved reference %q", ref)
		}
		if active[id] {
			return fmt.Errorf("soap: multiref: reference cycle through %q", ref)
		}
		active[id] = true
		defer delete(active, id)

		// The node keeps its element name; it adopts the carrier's
		// typing attributes and (a deep copy of) its content. A copy is
		// required because several hrefs may target one carrier.
		attrs := make([]sax.Attribute, 0, len(n.Attrs)+len(carrier.Attrs))
		for _, a := range n.Attrs {
			if a.Name.Prefix == "" && a.Name.Local == "href" {
				continue
			}
			attrs = append(attrs, a)
		}
		for _, a := range carrier.Attrs {
			if a.Name.Prefix == "" && (a.Name.Local == "id" || a.Name.Local == "root") {
				continue
			}
			// The reference's own attributes (rare) win over the
			// carrier's.
			if _, exists := findAttr(attrs, a.Name); !exists {
				attrs = append(attrs, a)
			}
		}
		n.Attrs = attrs
		n.Children = nil
		for _, c := range carrier.Children {
			n.AppendChild(c.Clone())
		}
	}

	for _, c := range n.Children {
		if c.Kind != dom.ElementNode {
			continue
		}
		if err := spliceRefs(c, carriers, active); err != nil {
			return err
		}
	}
	return nil
}

// findAttr locates an attribute by resolved name.
func findAttr(attrs []sax.Attribute, name sax.Name) (string, bool) {
	for _, a := range attrs {
		if a.Name.Space == name.Space && a.Name.Local == name.Local {
			return a.Value, true
		}
	}
	return "", false
}

// decodeMultiRefDoc decodes an href-bearing envelope via the DOM
// resolution pre-pass.
func (c *Codec) decodeMultiRefDoc(doc []byte) (*DecodedMessage, error) {
	d, err := dom.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("soap: multiref: %w", err)
	}
	return c.decodeMultiRefDOM(d)
}

// decodeMultiRefEvents decodes an href-bearing recorded event stream.
func (c *Codec) decodeMultiRefEvents(events []sax.Event) (*DecodedMessage, error) {
	d, err := dom.FromEvents(events)
	if err != nil {
		return nil, fmt.Errorf("soap: multiref: %w", err)
	}
	return c.decodeMultiRefDOM(d)
}

// decodeMultiRefDOM resolves references and streams the resolved tree
// into the ordinary decoder.
func (c *Codec) decodeMultiRefDOM(d *dom.Document) (*DecodedMessage, error) {
	if err := resolveMultiRef(d); err != nil {
		return nil, err
	}
	dec := newEnvelopeDecoder(c.reg)
	if err := sax.Replay(d.Events(), dec); err != nil {
		return nil, fmt.Errorf("soap: multiref decode: %w", err)
	}
	return dec.message()
}
