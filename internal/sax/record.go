package sax

// Recorder is a Handler that captures the event stream into a flat
// Sequence. This is the paper's "SAX events sequence" cache value
// representation: storing the post-parsing representation avoids
// re-tokenizing the XML message on every cache hit, while replaying the
// sequence through the deserializer still constructs a fresh
// application object (so there are no aliasing side effects).
type Recorder struct {
	events []Event
}

var _ Handler = (*Recorder)(nil)

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Sequence returns the recorded events. The returned slice is the
// recorder's backing store; callers that outlive the recorder should
// copy it (Snapshot does).
func (r *Recorder) Sequence() []Event { return r.events }

// Snapshot returns an independent copy of the recorded events, with
// attribute slices deep-copied so later recordings cannot alias it.
func (r *Recorder) Snapshot() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	for i := range out {
		if len(out[i].Attrs) > 0 {
			attrs := make([]Attribute, len(out[i].Attrs))
			copy(attrs, out[i].Attrs)
			out[i].Attrs = attrs
		}
	}
	return out
}

// Reset discards all recorded events, retaining capacity.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// OnStartDocument implements Handler.
func (r *Recorder) OnStartDocument() error {
	r.events = append(r.events, Event{Kind: StartDocument})
	return nil
}

// OnEndDocument implements Handler.
func (r *Recorder) OnEndDocument() error {
	r.events = append(r.events, Event{Kind: EndDocument})
	return nil
}

// OnStartElement implements Handler.
func (r *Recorder) OnStartElement(name Name, attrs []Attribute) error {
	var copied []Attribute
	if len(attrs) > 0 {
		copied = make([]Attribute, len(attrs))
		copy(copied, attrs)
	}
	r.events = append(r.events, Event{Kind: StartElement, Name: name, Attrs: copied})
	return nil
}

// OnEndElement implements Handler.
func (r *Recorder) OnEndElement(name Name) error {
	r.events = append(r.events, Event{Kind: EndElement, Name: name})
	return nil
}

// OnCharacters implements Handler.
func (r *Recorder) OnCharacters(text string) error {
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
	rec := NewRecorder()
	if err := Parse(doc, rec); err != nil {
		return nil, err
	}
	return rec.Sequence(), nil
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
