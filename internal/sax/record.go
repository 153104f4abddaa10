package sax

// recorder is a Handler that captures the event stream into a flat
// event slice. This is the paper's "SAX events sequence" cache value
// representation: storing the post-parsing representation avoids
// re-tokenizing the XML message on every cache hit, while replaying the
// sequence through the deserializer still constructs a fresh
// application object (so there are no aliasing side effects).
type recorder struct {
	events []Event
}

var _ Handler = (*recorder)(nil)

// OnStartDocument implements Handler.
func (r *recorder) OnStartDocument() error {
	r.events = append(r.events, Event{Kind: StartDocument})
	return nil
}

// OnEndDocument implements Handler.
func (r *recorder) OnEndDocument() error {
	r.events = append(r.events, Event{Kind: EndDocument})
	return nil
}

// OnStartElement implements Handler.
func (r *recorder) OnStartElement(name Name, attrs []Attribute) error {
	var copied []Attribute
	if len(attrs) > 0 {
		copied = make([]Attribute, len(attrs))
		copy(copied, attrs)
	}
	r.events = append(r.events, Event{Kind: StartElement, Name: name, Attrs: copied})
	return nil
}

// OnEndElement implements Handler.
func (r *recorder) OnEndElement(name Name) error {
	r.events = append(r.events, Event{Kind: EndElement, Name: name})
	return nil
}

// OnCharacters implements Handler.
func (r *recorder) OnCharacters(text string) error {
	r.events = append(r.events, Event{Kind: Characters, Text: text})
	return nil
}

// Replay delivers a recorded event sequence to h, exactly as the
// original parse would have. Replaying skips tokenization entirely —
// the cost a cache hit pays is only handler dispatch plus whatever the
// handler itself does.
func Replay(events []Event, h Handler) error {
	for i := range events {
		e := &events[i]
		var err error
		switch e.Kind {
		case StartDocument:
			err = h.OnStartDocument()
		case EndDocument:
			err = h.OnEndDocument()
		case StartElement:
			err = h.OnStartElement(e.Name, e.Attrs)
		case EndElement:
			err = h.OnEndElement(e.Name)
		case Characters:
			err = h.OnCharacters(e.Text)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Record parses doc and returns its recorded event sequence.
func Record(doc []byte) ([]Event, error) {
	rec := &recorder{}
	if err := Parse(doc, rec); err != nil {
		return nil, err
	}
	return rec.events, nil
}

// SequenceMemSize estimates the in-memory footprint of a recorded
// sequence in bytes: the event structs plus the string payloads and
// attribute slices they reference. Used by the Table 8/9 measurements.
func SequenceMemSize(events []Event) int {
	const (
		eventSize = 16 + 3*16 + 24 + 16 // Kind+Name(3 strings)+Attrs hdr+Text hdr, approx
		attrSize  = 3*16 + 16
	)
	size := 24 + len(events)*eventSize
	for i := range events {
		e := &events[i]
		size += len(e.Name.Space) + len(e.Name.Prefix) + len(e.Name.Local) + len(e.Text)
		size += len(e.Attrs) * attrSize
		for _, a := range e.Attrs {
			size += len(a.Name.Space) + len(a.Name.Prefix) + len(a.Name.Local) + len(a.Value)
		}
	}
	return size
}
