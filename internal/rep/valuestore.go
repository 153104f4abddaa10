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
	// explicit pass-by-reference store), and so must what Store read
	// from the invocation. TestEveryRepresentationIsCallByCopy holds
	// every registered representation to it.
	Load(payload any) (any, error)
}

// ErrNotApplicable reports that a value store cannot represent a given
// result; the Selector's walk and callers use it to fall through to the
// next candidate.
//
//lint:ignore api server's TestResponseCacheTemplateBodyReplaysThirdPartyBytes checks a refused body with it
var ErrNotApplicable = errors.New("rep: representation not applicable to this result type")

// xmlMessageStore caches the response XML message itself (Section
// 4.2.1). Load performs a full parse and deserialization; no
// limitation on object types, highest hit cost.
type xmlMessageStore struct {
	codec *soap.Codec
}

var _ ValueStore = (*xmlMessageStore)(nil)

// NewXMLMessageStore returns the XML-message representation.
func NewXMLMessageStore(codec *soap.Codec) *xmlMessageStore {
	return &xmlMessageStore{codec: codec}
}

// Name implements ValueStore.
func (s *xmlMessageStore) Name() string { return "XML message" }

// Store implements ValueStore.
func (s *xmlMessageStore) Store(ictx *client.Context) (any, int, error) {
	if len(ictx.ResponseXML) == 0 {
		return nil, 0, fmt.Errorf("rep: xml store: %w: invocation captured no response XML", ErrNotApplicable)
	}
	// Copy: the context's buffer belongs to the transport.
	doc := make([]byte, len(ictx.ResponseXML))
	copy(doc, ictx.ResponseXML)
	return doc, len(doc), nil
}

// Load implements ValueStore.
func (s *xmlMessageStore) Load(payload any) (any, error) {
	doc, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: xml store: payload is %T", payload)
	}
	return result(s.codec.DecodeEnvelope(doc))
}

// result is the message-level stores' common tail: a message that
// does not decode is corrupt, a decoded fault is the call's error,
// anything else yields the result.
func result(msg *soap.DecodedMessage, err error) (any, error) {
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptWire, err)
	}
	if msg.Fault != nil {
		return nil, msg.Fault
	}
	return msg.Result(), nil
}

// saxEventsStore caches the recorded SAX event sequence of the response
// (Section 4.2.2, Table 4). Load replays the events through the
// deserializer: no tokenization, fresh objects every hit, no type
// limitation. Store records the response through client.Context.Events,
// once per fill however many stores read the recording.
type saxEventsStore struct {
	codec *soap.Codec
}

// NewSAXEventsStore returns the SAX-events representation.
func NewSAXEventsStore(codec *soap.Codec) *saxEventsStore {
	return &saxEventsStore{codec: codec}
}

// Name implements ValueStore.
func (s *saxEventsStore) Name() string { return "SAX events sequence" }

// Store implements ValueStore.
func (s *saxEventsStore) Store(ictx *client.Context) (any, int, error) {
	events, err := ictx.Events()
	if err != nil {
		return nil, 0, fmt.Errorf("rep: sax store: %w", err)
	}
	if len(events) == 0 {
		return nil, 0, fmt.Errorf("rep: sax store: %w: invocation captured neither events nor XML", ErrNotApplicable)
	}
	// Copy the attribute lists too, into one array: the context's
	// recording may be written after the fill.
	seq := make([]sax.Event, len(events))
	copy(seq, events)
	n := 0
	for i := range seq {
		n += len(seq[i].Attrs)
	}
	attrs := make([]sax.Attribute, 0, n)
	for i := range seq {
		if a := seq[i].Attrs; len(a) > 0 {
			attrs = append(attrs, a...)
			seq[i].Attrs = attrs[len(attrs)-len(a) : len(attrs) : len(attrs)]
		}
	}
	return seq, sax.SequenceMemSize(seq), nil
}

// Load implements ValueStore.
func (s *saxEventsStore) Load(payload any) (any, error) {
	events, ok := payload.([]sax.Event)
	if !ok {
		return nil, fmt.Errorf("rep: sax store: payload is %T", payload)
	}
	return result(s.codec.DecodeEnvelopeEvents(events))
}

// domStore caches the response's DOM tree — the other post-parsing
// representation the paper names (Section 3.3: "DOM objects or SAX
// events sequences"). Load walks the tree as an event stream into the
// deserializer: like SAX replay it skips tokenization; unlike SAX
// replay the tree supports structural inspection (and is how multiref
// resolution works), at a higher memory cost.
type domStore struct {
	eventLoad
}

// newDOMStore returns the DOM-tree representation.
func newDOMStore(codec *soap.Codec) *domStore {
	return &domStore{eventLoad{codec}}
}

// Name implements ValueStore.
func (s *domStore) Name() string { return "DOM tree" }

// Store implements ValueStore.
func (s *domStore) Store(ictx *client.Context) (any, int, error) {
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
	return &eventPayload{src: doc, multiRef: soap.EventsHaveHref(doc.Events())}, memsize.Of(doc), nil
}

// eventSource is a held event stream that replays without
// tokenization: a DOM tree or a compact sequence.
type eventSource interface {
	Events() []sax.Event
	Replay(sax.Handler) error
}

// eventPayload is what the DOM and compact-SAX stores hold: the
// response's events in the store's form, and whether they need the
// multi-reference resolution pass, checked once at store time rather
// than on every hit.
type eventPayload struct {
	src      eventSource
	multiRef bool
}

// eventLoad is the Load the DOM and compact-SAX stores share: a stream
// that needs multi-reference resolution is materialized for the
// structural pass; any other replays straight into the deserializer.
type eventLoad struct {
	codec *soap.Codec
}

// Load implements ValueStore.
func (s eventLoad) Load(payload any) (any, error) {
	p, ok := payload.(*eventPayload)
	if !ok {
		return nil, fmt.Errorf("rep: event store: payload is %T", payload)
	}
	if p.multiRef {
		return result(s.codec.DecodeEnvelopeEvents(p.src.Events()))
	}
	return result(s.codec.DecodeReplay(p.src.Replay))
}

// compactSAXStore is saxEventsStore with the recorded sequence held in
// the string-interned struct-of-arrays form (sax.CompactSequence). Same
// semantics and applicability; a fraction of the memory (SOAP event
// streams are highly repetitive) for slightly more replay work. Ledger
// rows rep.store.compact-sax.* against rep.store.sax.* price the trade.
type compactSAXStore struct {
	eventLoad
}

// newCompactSAXStore returns the compact SAX-events representation.
func newCompactSAXStore(codec *soap.Codec) *compactSAXStore {
	return &compactSAXStore{eventLoad{codec}}
}

// Name implements ValueStore.
func (s *compactSAXStore) Name() string { return "SAX events (compact)" }

// Store implements ValueStore.
func (s *compactSAXStore) Store(ictx *client.Context) (any, int, error) {
	events, err := ictx.Events()
	if err != nil {
		return nil, 0, fmt.Errorf("rep: compact sax store: %w", err)
	}
	if len(events) == 0 {
		return nil, 0, fmt.Errorf("rep: compact sax store: %w: invocation captured neither events nor XML", ErrNotApplicable)
	}
	seq := sax.Compact(events)
	return &eventPayload{src: seq, multiRef: soap.EventsHaveHref(events)}, seq.MemSize(), nil
}

// gobStore caches the gob-serialized form of the application object
// (Section 4.2.3-A, the Java-serialization analog). Load decodes a
// fresh object graph. Limitation: a bean-type object graph, as for
// reflection copy. No selection order reaches it; it stays for the
// ledger's gob-against-binser rows.
type gobStore struct {
	reg *typemap.Registry
}

var _ ValueStore = (*gobStore)(nil)

// newGobStore returns the serialization representation. reg, when
// non-nil, pre-checks bean-ness and yields ErrNotApplicable for
// unencodable results instead of a late gob failure.
func newGobStore(reg *typemap.Registry) *gobStore {
	return &gobStore{reg: reg}
}

// Name implements ValueStore.
func (s *gobStore) Name() string { return "Gob serialization" }

// Store implements ValueStore.
func (s *gobStore) Store(ictx *client.Context) (any, int, error) {
	if s.reg != nil && ictx.Result != nil {
		if !s.reg.InfoFor(ictx.Result).IsBean {
			return nil, 0, fmt.Errorf("%w: %T is not a bean-type object", ErrNotApplicable, ictx.Result)
		}
	}
	data, err := gobEncode(ictx.Result)
	if err != nil {
		return nil, 0, fmt.Errorf("rep: gob store: %w", err)
	}
	return data, len(data), nil
}

// Load implements ValueStore.
func (s *gobStore) Load(payload any) (any, error) {
	data, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("rep: gob store: payload is %T", payload)
	}
	v, err := gobDecode(data)
	if err != nil {
		return nil, corrupt("gob store", err)
	}
	return v, nil
}

// reflectCopyStore caches a reflection deep copy of the application
// object (Section 4.2.3-B). Both Store and Load copy, preserving
// call-by-copy in both directions (Section 3.1). Limitation: bean-type
// object graphs (all reachable struct fields exported).
type reflectCopyStore struct {
	reg *typemap.Registry
}

var _ ValueStore = (*reflectCopyStore)(nil)

// NewReflectCopyStore returns the reflection-copy representation.
func NewReflectCopyStore(reg *typemap.Registry) *reflectCopyStore {
	return &reflectCopyStore{reg: reg}
}

// Name implements ValueStore.
func (s *reflectCopyStore) Name() string { return "Copy by reflection" }

// Store implements ValueStore.
func (s *reflectCopyStore) Store(ictx *client.Context) (any, int, error) {
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
func (s *reflectCopyStore) Load(payload any) (any, error) {
	cp, err := deepcopy.Value(payload)
	if err != nil {
		return nil, fmt.Errorf("rep: reflect store: %w", err)
	}
	return cp, nil
}

// cloneCopyStore caches a deep copy made by the object's own CloneDeep
// method (Section 4.2.3-C): the fastest copying representation, at the
// cost of requiring generated or hand-written clone support.
type cloneCopyStore struct{}

var _ ValueStore = cloneCopyStore{}

// NewCloneCopyStore returns the clone-copy representation.
func NewCloneCopyStore() cloneCopyStore { return cloneCopyStore{} }

// Name implements ValueStore.
func (cloneCopyStore) Name() string { return "Copy by clone" }

// Store implements ValueStore.
func (cloneCopyStore) Store(ictx *client.Context) (any, int, error) {
	cl, ok := ictx.Result.(typemap.Cloner)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %T does not implement Cloner", ErrNotApplicable, ictx.Result)
	}
	cp := cl.CloneDeep()
	return cp, memsize.Of(cp), nil
}

// Load implements ValueStore.
func (cloneCopyStore) Load(payload any) (any, error) {
	cl, ok := payload.(typemap.Cloner)
	if !ok {
		return nil, fmt.Errorf("rep: clone store: payload %T lost its Cloner", payload)
	}
	return cl.CloneDeep(), nil
}

// refStore caches the reference itself and returns it on every hit
// (Section 4.2.4). Zero copying cost; safe ONLY for immutable results
// or results the administrator asserts are read-only — a client that
// mutates a shared result corrupts the cache for every later hit.
type refStore struct {
	reg *typemap.Registry
	// allowMutable permits storing mutable types: the administrator's
	// read-only assertion, made by configuring an operation with
	// Store: NewRefStore(types, true).
	allowMutable bool
}

var _ ValueStore = (*refStore)(nil)

// NewRefStore returns the pass-by-reference representation. With
// allowMutable false it accepts only deeply immutable results; with
// true it is the read-only assertion of Section 4.2.4 and accepts any
// result.
func NewRefStore(reg *typemap.Registry, allowMutable bool) *refStore {
	return &refStore{reg: reg, allowMutable: allowMutable}
}

// Name implements ValueStore.
func (s *refStore) Name() string { return "Pass by reference" }

// Store implements ValueStore.
func (s *refStore) Store(ictx *client.Context) (any, int, error) {
	if !s.allowMutable && ictx.Result != nil && s.reg != nil {
		if !s.reg.InfoFor(ictx.Result).IsImmutable {
			return nil, 0, fmt.Errorf("%w: %T is mutable and not declared read-only", ErrNotApplicable, ictx.Result)
		}
	}
	return ictx.Result, memsize.Of(ictx.Result), nil
}

// Load implements ValueStore.
func (s *refStore) Load(payload any) (any, error) {
	return payload, nil
}
