package sax

// CompactSequence is a memory-optimized recording of a SAX event
// stream. The naive []Event representation holds per-event Name
// structs, attribute slices and string headers; for SOAP responses
// (many small elements, highly repetitive names and namespace URIs) it
// is the largest cache representation by far. CompactSequence flattens
// the stream into struct-of-arrays form with an interned string table:
// repeated names, URIs and prefixes are stored once.
//
// Replaying a CompactSequence drives a Handler exactly as Replay does
// for []Event, so it is a drop-in cache payload; the referee ledger's
// rep.store.compact-sax rows against its rep.store.sax rows quantify
// the trade (memory vs replay cost of rebuilding attribute slices).
type CompactSequence struct {
	// ops is one byte per event (the event kind).
	ops []byte
	// refs holds per-event string-table references, variable length:
	//   StartElement: space, prefix, local, attrCount, then per
	//                 attribute space, prefix, local, value
	//   EndElement:   space, prefix, local
	//   Characters:   text
	refs []uint32
	// strings is the interned table; index 0 is always "".
	strings []string
}

// compactBuilder interns strings while flattening.
type compactBuilder struct {
	seq    CompactSequence
	intern map[string]uint32
}

// Compact flattens a recorded event sequence.
func Compact(events []Event) *CompactSequence {
	b := &compactBuilder{intern: make(map[string]uint32, 64)}
	b.seq.strings = append(b.seq.strings, "")
	b.intern[""] = 0
	for i := range events {
		b.add(&events[i])
	}
	return &b.seq
}

// add flattens one event.
func (b *compactBuilder) add(e *Event) {
	b.seq.ops = append(b.seq.ops, byte(e.Kind))
	switch e.Kind {
	case StartElement:
		b.name(e.Name)
		b.seq.refs = append(b.seq.refs, uint32(len(e.Attrs)))
		for _, a := range e.Attrs {
			b.name(a.Name)
			b.seq.refs = append(b.seq.refs, b.id(a.Value))
		}
	case EndElement:
		b.name(e.Name)
	case Characters:
		b.seq.refs = append(b.seq.refs, b.id(e.Text))
	}
}

// name appends a Name's three string references.
func (b *compactBuilder) name(n Name) {
	b.seq.refs = append(b.seq.refs, b.id(n.Space), b.id(n.Prefix), b.id(n.Local))
}

// id interns s.
func (b *compactBuilder) id(s string) uint32 {
	if id, ok := b.intern[s]; ok {
		return id
	}
	id := uint32(len(b.seq.strings))
	b.seq.strings = append(b.seq.strings, s)
	b.intern[s] = id
	return id
}

// Events reconstructs the equivalent []Event sequence.
func (c *CompactSequence) Events() []Event {
	out := make([]Event, 0, len(c.ops))
	r := &compactReader{seq: c}
	for _, op := range c.ops {
		kind := eventKind(op)
		e := Event{Kind: kind}
		switch kind {
		case StartElement:
			e.Name = r.name()
			n := r.next()
			if n > 0 {
				e.Attrs = make([]Attribute, n)
				for i := uint32(0); i < n; i++ {
					e.Attrs[i] = Attribute{Name: r.name(), Value: r.str()}
				}
			}
		case EndElement:
			e.Name = r.name()
		case Characters:
			e.Text = r.str()
		}
		out = append(out, e)
	}
	return out
}

// Replay drives a Handler directly from the compact form, without
// materializing []Event. A scratch attribute buffer is reused across
// elements.
func (c *CompactSequence) Replay(h Handler) error {
	r := &compactReader{seq: c}
	var attrs []Attribute
	for _, op := range c.ops {
		var err error
		switch eventKind(op) {
		case StartDocument:
			err = h.OnStartDocument()
		case EndDocument:
			err = h.OnEndDocument()
		case StartElement:
			name := r.name()
			n := r.next()
			attrs = attrs[:0]
			for i := uint32(0); i < n; i++ {
				attrs = append(attrs, Attribute{Name: r.name(), Value: r.str()})
			}
			err = h.OnStartElement(name, attrs)
		case EndElement:
			err = h.OnEndElement(r.name())
		case Characters:
			err = h.OnCharacters(r.str())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MemSize estimates the in-memory footprint in bytes.
func (c *CompactSequence) MemSize() int {
	size := 3*24 + len(c.ops) + 4*len(c.refs) + 16*len(c.strings)
	for _, s := range c.strings {
		size += len(s)
	}
	return size
}

// compactReader walks the refs array.
type compactReader struct {
	seq *CompactSequence
	pos int
}

func (r *compactReader) next() uint32 {
	v := r.seq.refs[r.pos]
	r.pos++
	return v
}

func (r *compactReader) str() string {
	return r.seq.strings[r.next()]
}

func (r *compactReader) name() Name {
	return Name{Space: r.str(), Prefix: r.str(), Local: r.str()}
}
