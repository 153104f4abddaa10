package rep

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/deepcopy"
	"repro/internal/dom"
	"repro/internal/memsize"
	"repro/internal/sax"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// ValueStore is a cache value representation (Table 3). Store converts
// a completed invocation into a payload held in the cache; Load
// materializes a payload back into an application object for the
// client. The pair divides the cost of a cache hit: cheap Load is the
// whole game (Table 7).
type ValueStore interface {
	// Name identifies the representation in reports (Table 7 rows).
	Name() string
	// Store builds the payload and reports its estimated size in
	// bytes. It returns an error when the representation's limitation
	// excludes this result (e.g. clone copy on a non-Cloner).
	Store(ictx *client.Context) (payload any, size int, err error)
	// Load materializes an application object from a payload. Each
	// call must honor call-by-copy semantics: the returned object must
	// be safe for the client to mutate (unless the store is the
	// explicit pass-by-reference store).
	Load(payload any) (any, error)
}

// ErrNotApplicable reports that a value store cannot represent a given
// result; the Selector's walk and callers use it to fall through to the
// next candidate.
var ErrNotApplicable = errors.New("rep: representation not applicable to this result type")

// XMLMessageStore caches the response XML message itself (Section
// 4.2.1). Load performs a full parse and deserialization; no
// limitation on object types, highest hit cost.
type XMLMessageStore struct {
	codec *soap.Codec
}

var _ ValueStore = (*XMLMessageStore)(nil)

// NewXMLMessageStore returns the XML-message representation.
func NewXMLMessageStore(codec *soap.Codec) *XMLMessageStore {
	return &XMLMessageStore{codec: codec}
}

// Name implements ValueStore.
func (s *XMLMessageStore) Name() string { return "XML message" }

// Store implements ValueStore.
func (s *XMLMessageStore) Store(ictx *client.Context) (any, int, error) {
	if len(ictx.ResponseXML) == 0 {
		return nil, 0, fmt.Errorf("rep: xml store: %w: invocation captured no response XML", ErrNotApplicable)
	}
	// Copy: the context's buffer belongs to the transport.
	doc := make([]byte, len(ictx.ResponseXML))
	copy(doc, ictx.ResponseXML)
	return doc, len(doc), nil
}

// Load implements ValueStore.
func (s *XMLMessageStore) Load(payload any) (any, error) {
	doc, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: xml store: payload is %T", payload)
	}
	msg, err := s.codec.DecodeEnvelope(doc)
	if err != nil {
		return nil, err
	}
	if msg.Fault != nil {
		return nil, msg.Fault
	}
	return msg.Result(), nil
}

// SAXEventsStore caches the recorded SAX event sequence of the response
// (Section 4.2.2, Table 4). Load replays the events through the
// deserializer: no tokenization, fresh objects every hit, no type
// limitation. Store records the response through client.Context.Events,
// once per fill however many stores read the recording.
type SAXEventsStore struct {
	codec *soap.Codec
}

// NewSAXEventsStore returns the SAX-events representation.
func NewSAXEventsStore(codec *soap.Codec) *SAXEventsStore {
	return &SAXEventsStore{codec: codec}
}

// Name implements ValueStore.
func (s *SAXEventsStore) Name() string { return "SAX events sequence" }

// Store implements ValueStore.
func (s *SAXEventsStore) Store(ictx *client.Context) (any, int, error) {
	events, err := ictx.Events()
	if err != nil {
		return nil, 0, fmt.Errorf("rep: sax store: %w", err)
	}
	if len(events) == 0 {
		return nil, 0, fmt.Errorf("rep: sax store: %w: invocation captured neither events nor XML", ErrNotApplicable)
	}
	seq := make([]sax.Event, len(events))
	copy(seq, events)
	return seq, sax.SequenceMemSize(seq), nil
}

// Load implements ValueStore.
func (s *SAXEventsStore) Load(payload any) (any, error) {
	events, ok := payload.([]sax.Event)
	if !ok {
		return nil, fmt.Errorf("rep: sax store: payload is %T", payload)
	}
	msg, err := s.codec.DecodeEnvelopeEvents(events)
	if err != nil {
		return nil, err
	}
	if msg.Fault != nil {
		return nil, msg.Fault
	}
	return msg.Result(), nil
}

// DOMStore caches the response's DOM tree — the other post-parsing
// representation the paper names (Section 3.3: "DOM objects or SAX
// events sequences"). Load walks the tree as an event stream into the
// deserializer: like SAX replay it skips tokenization; unlike SAX
// replay the tree supports structural inspection (and is how multiref
// resolution works), at a higher memory cost.
type DOMStore struct {
	codec *soap.Codec
}

// NewDOMStore returns the DOM-tree representation.
func NewDOMStore(codec *soap.Codec) *DOMStore {
	return &DOMStore{codec: codec}
}

// Name implements ValueStore.
func (s *DOMStore) Name() string { return "DOM tree" }

// Store implements ValueStore.
func (s *DOMStore) Store(ictx *client.Context) (any, int, error) {
	var doc *dom.Document
	var err error
	switch {
	case len(ictx.ResponseEvents) > 0:
		doc, err = dom.FromEvents(ictx.ResponseEvents)
	case len(ictx.ResponseXML) > 0:
		doc, err = dom.Parse(ictx.ResponseXML)
	default:
		return nil, 0, fmt.Errorf("rep: dom store: %w: invocation captured neither events nor XML", ErrNotApplicable)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("rep: dom store: %w", err)
	}
	return &domPayload{
		doc:      doc,
		multiRef: soap.EventsHaveHref(doc.Events()),
	}, memsize.Of(doc), nil
}

// domPayload remembers whether the tree needs multiref resolution, so
// the check is paid once at store time rather than on every hit.
type domPayload struct {
	doc      *dom.Document
	multiRef bool
}

// Load implements ValueStore.
func (s *DOMStore) Load(payload any) (any, error) {
	p, ok := payload.(*domPayload)
	if !ok {
		return nil, fmt.Errorf("rep: dom store: payload is %T", payload)
	}
	// Multiref envelopes need the structural resolution pass; plain
	// envelopes stream the tree straight into the deserializer.
	if p.multiRef {
		msg, err := s.codec.DecodeEnvelopeEvents(p.doc.Events())
		if err != nil {
			return nil, err
		}
		if msg.Fault != nil {
			return nil, msg.Fault
		}
		return msg.Result(), nil
	}
	dh := s.codec.NewDecodeHandler()
	if err := p.doc.Visit(dh.Handler()); err != nil {
		return nil, err
	}
	msg, err := dh.Message()
	if err != nil {
		return nil, err
	}
	if msg.Fault != nil {
		return nil, msg.Fault
	}
	return msg.Result(), nil
}

// CompactSAXStore is SAXEventsStore with the recorded sequence held in
// the string-interned struct-of-arrays form (sax.CompactSequence). Same
// semantics and applicability; a fraction of the memory (SOAP event
// streams are highly repetitive) for slightly more replay work. Ledger
// rows rep.store.compact-sax.* against rep.store.sax.* price the trade.
type CompactSAXStore struct {
	codec *soap.Codec
}

// NewCompactSAXStore returns the compact SAX-events representation.
func NewCompactSAXStore(codec *soap.Codec) *CompactSAXStore {
	return &CompactSAXStore{codec: codec}
}

// Name implements ValueStore.
func (s *CompactSAXStore) Name() string { return "SAX events (compact)" }

// Store implements ValueStore.
func (s *CompactSAXStore) Store(ictx *client.Context) (any, int, error) {
	events, err := ictx.Events()
	if err != nil {
		return nil, 0, fmt.Errorf("rep: compact sax store: %w", err)
	}
	if len(events) == 0 {
		return nil, 0, fmt.Errorf("rep: compact sax store: %w: invocation captured neither events nor XML", ErrNotApplicable)
	}
	seq := sax.Compact(events)
	payload := &compactSAXPayload{seq: seq, multiRef: soap.EventsHaveHref(events)}
	return payload, seq.MemSize(), nil
}

// compactSAXPayload remembers whether the stream needs the
// multi-reference resolution path at load time.
type compactSAXPayload struct {
	seq      *sax.CompactSequence
	multiRef bool
}

// Load implements ValueStore.
func (s *CompactSAXStore) Load(payload any) (any, error) {
	p, ok := payload.(*compactSAXPayload)
	if !ok {
		return nil, fmt.Errorf("rep: compact sax store: payload is %T", payload)
	}
	if p.multiRef {
		// href resolution needs a structural pass; rematerialize.
		msg, err := s.codec.DecodeEnvelopeEvents(p.seq.Events())
		if err != nil {
			return nil, err
		}
		if msg.Fault != nil {
			return nil, msg.Fault
		}
		return msg.Result(), nil
	}
	dh := s.codec.NewDecodeHandler()
	if err := p.seq.Replay(dh.Handler()); err != nil {
		return nil, err
	}
	msg, err := dh.Message()
	if err != nil {
		return nil, err
	}
	if msg.Fault != nil {
		return nil, msg.Fault
	}
	return msg.Result(), nil
}

// GobStore caches the gob-serialized form of the application object
// (Section 4.2.3-A, the Java-serialization analog). Load decodes a
// fresh object graph. Limitation: the object graph must be deeply
// gob-encodable.
type GobStore struct {
	reg *typemap.Registry
}

var _ ValueStore = (*GobStore)(nil)

// NewGobStore returns the serialization representation. reg, when
// non-nil, pre-checks encodability and yields ErrNotApplicable for
// unencodable results instead of a late gob failure.
func NewGobStore(reg *typemap.Registry) *GobStore {
	return &GobStore{reg: reg}
}

// Name implements ValueStore.
func (s *GobStore) Name() string { return "Gob serialization" }

// Store implements ValueStore.
func (s *GobStore) Store(ictx *client.Context) (any, int, error) {
	if s.reg != nil && ictx.Result != nil {
		if !s.reg.InfoFor(ictx.Result).IsGobSafe {
			return nil, 0, fmt.Errorf("%w: %T is not deeply gob-encodable", ErrNotApplicable, ictx.Result)
		}
	}
	data, err := gobEncode(ictx.Result)
	if err != nil {
		return nil, 0, fmt.Errorf("rep: gob store: %w", err)
	}
	return data, len(data), nil
}

// Load implements ValueStore.
func (s *GobStore) Load(payload any) (any, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: gob store: payload is %T", payload)
	}
	v, err := gobDecode(data)
	if err != nil {
		return nil, fmt.Errorf("rep: gob store: %w", err)
	}
	return v, nil
}

// ReflectCopyStore caches a reflection deep copy of the application
// object (Section 4.2.3-B). Both Store and Load copy, preserving
// call-by-copy in both directions (Section 3.1). Limitation: bean-type
// object graphs (all reachable struct fields exported).
type ReflectCopyStore struct {
	reg *typemap.Registry
}

var _ ValueStore = (*ReflectCopyStore)(nil)

// NewReflectCopyStore returns the reflection-copy representation.
func NewReflectCopyStore(reg *typemap.Registry) *ReflectCopyStore {
	return &ReflectCopyStore{reg: reg}
}

// Name implements ValueStore.
func (s *ReflectCopyStore) Name() string { return "Copy by reflection" }

// Store implements ValueStore.
func (s *ReflectCopyStore) Store(ictx *client.Context) (any, int, error) {
	if s.reg != nil && ictx.Result != nil {
		if !s.reg.InfoFor(ictx.Result).IsBean {
			return nil, 0, fmt.Errorf("%w: %T is not a bean-type object", ErrNotApplicable, ictx.Result)
		}
	}
	cp, err := deepcopy.Value(ictx.Result)
	if err != nil {
		return nil, 0, fmt.Errorf("rep: reflect store: %w", err)
	}
	return cp, memsize.Of(cp), nil
}

// Load implements ValueStore.
func (s *ReflectCopyStore) Load(payload any) (any, error) {
	cp, err := deepcopy.Value(payload)
	if err != nil {
		return nil, fmt.Errorf("rep: reflect store: %w", err)
	}
	return cp, nil
}

// CloneCopyStore caches a deep copy made by the object's own CloneDeep
// method (Section 4.2.3-C): the fastest copying representation, at the
// cost of requiring generated or hand-written clone support.
type CloneCopyStore struct{}

var _ ValueStore = CloneCopyStore{}

// NewCloneCopyStore returns the clone-copy representation.
func NewCloneCopyStore() CloneCopyStore { return CloneCopyStore{} }

// Name implements ValueStore.
func (CloneCopyStore) Name() string { return "Copy by clone" }

// Store implements ValueStore.
func (CloneCopyStore) Store(ictx *client.Context) (any, int, error) {
	cl, ok := ictx.Result.(typemap.Cloner)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %T does not implement Cloner", ErrNotApplicable, ictx.Result)
	}
	cp := cl.CloneDeep()
	return cp, memsize.Of(cp), nil
}

// Load implements ValueStore.
func (CloneCopyStore) Load(payload any) (any, error) {
	cl, ok := payload.(typemap.Cloner)
	if !ok {
		return nil, fmt.Errorf("rep: clone store: payload %T lost its Cloner", payload)
	}
	return cl.CloneDeep(), nil
}

// RefStore caches the reference itself and returns it on every hit
// (Section 4.2.4). Zero copying cost; safe ONLY for immutable results
// or results the administrator asserts are read-only — a client that
// mutates a shared result corrupts the cache for every later hit.
type RefStore struct {
	reg *typemap.Registry
	// AllowMutable permits storing mutable types; set when the
	// administrator has asserted read-only use (Policy.ReadOnly).
	allowMutable bool
}

var _ ValueStore = (*RefStore)(nil)

// NewRefStore returns the pass-by-reference representation. With
// allowMutable false it accepts only deeply immutable results; the
// read-only policy flag constructs it with allowMutable true.
func NewRefStore(reg *typemap.Registry, allowMutable bool) *RefStore {
	return &RefStore{reg: reg, allowMutable: allowMutable}
}

// Name implements ValueStore.
func (s *RefStore) Name() string { return "Pass by reference" }

// Store implements ValueStore.
func (s *RefStore) Store(ictx *client.Context) (any, int, error) {
	if !s.allowMutable && ictx.Result != nil && s.reg != nil {
		if !s.reg.InfoFor(ictx.Result).IsImmutable {
			return nil, 0, fmt.Errorf("%w: %T is mutable and not declared read-only", ErrNotApplicable, ictx.Result)
		}
	}
	return ictx.Result, memsize.Of(ictx.Result), nil
}

// Load implements ValueStore.
func (s *RefStore) Load(payload any) (any, error) {
	return payload, nil
}
