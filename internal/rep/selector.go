package rep

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// sectionSix is the paper's Section 6 "optimal configuration" as an
// order over registry names: the first entry whose applicability
// predicate holds is the classified representation.
//
//	raw      stream-accepting consumer → raw response replay
//	ref      immutable types (and nil) → pass by reference
//	clone    Cloner implementations    → copy by clone
//	reflect  bean-type object graphs   → copy by reflection
//	gob      gob-encodable graphs      → gob serialization
//	sax      anything with a message   → SAX event sequence
//	xml      anything with response XML → the XML message
//
// Raw replay leads: it predates the Section 6 list, which only
// considered object results, and for a consumer that relays bytes it
// beats every object representation (no copy-out at all). The paper's
// list omits clone (its WSDL compiler did not yet emit clone methods)
// but argues it should; ours does, so clone slots in right after
// immutability. The wire counterpart is wirePreference (wire.go).
var sectionSix = []string{"raw", "ref", "clone", "reflect", "gob", "sax", "xml"}

// autoName is the selector's display name. It is an obs label (the
// copy-in/copy-out stage series), so it stays byte-identical across
// refactors.
const autoName = "Auto (optimal configuration)"

// Selector is the one representation-selection mechanism (DESIGN.md
// §5e): a ValueStore that decides, per fill, which registered
// representation holds the result — for the in-process L1 (Store,
// Load) and for byte-oriented remote tiers (StoreWire, LoadWire).
//
// Everything it knows is two orders over registry names, sectionSix
// for L1 and wirePreference for tiers; whether a representation can
// hold a result is the registry's ValueSpec.Applicable and nothing
// else. One walk serves every decision: the first applicable
// candidate in the order whose Store accepts the concrete value wins.
// That is the paper's static Section 6 classifier ("auto"); nothing is
// measured, so the same invocation always gets the same
// representation.
type Selector struct {
	reg *Registry
	// l1 and wire are the two orders resolved against the registry at
	// construction.
	l1, wire []*ValueSpec
}

var _ ValueStore = (*Selector)(nil)

// NewStaticSelector returns the selector over reg.
func NewStaticSelector(reg *Registry) *Selector {
	return &Selector{
		reg:  reg,
		l1:   reg.ordered(sectionSix),
		wire: reg.WireSpecs(),
	}
}

// NewAutoStore returns the selector over a fresh registry of the
// built-in representations bound to reg and codec.
func NewAutoStore(reg *typemap.Registry, codec *soap.Codec) *Selector {
	return NewStaticSelector(NewRegistry(reg, codec))
}

// Name implements ValueStore.
func (s *Selector) Name() string { return autoName }

// walk is the one selection loop: the first candidate in order that is
// applicable to the invocation and whose Store accepts the concrete
// value wins. The L1 walk (wire false) continues only past
// ErrNotApplicable — applicability is a type-level prediction the
// concrete value may refute, e.g. a type flagged gob-safe whose value
// smuggles in an unencodable interface member — and aborts on any
// other error, wrapped with the representation's name. The wire walk
// also flattens the payload (the returned payload is the []byte) and
// keeps going past any error, reporting the first: a tier write is
// best effort, so a later candidate that can hold the result beats
// giving up on the first one's failure.
//
// Skipping an inapplicable candidate is the same as calling it only
// because every representation in sectionSix returns ErrNotApplicable
// whenever its predicate is false (DESIGN.md §5e lists the seven).
func (s *Selector) walk(order []*ValueSpec, ictx *client.Context, wire bool) (*ValueSpec, any, int, error) {
	var first error
	for _, spec := range order {
		if !spec.Applicable(ictx) {
			continue
		}
		payload, size, err := spec.Store.Store(ictx)
		if err == nil && wire {
			var data []byte
			data, err = spec.Store.(WireStore).EncodeWire(payload)
			payload, size = data, len(data)
		}
		if err == nil {
			return spec, payload, size, nil
		}
		if !wire && !errors.Is(err, ErrNotApplicable) {
			return nil, nil, 0, fmt.Errorf("rep: selector: %s: %w", spec.Store.Name(), err)
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		first = ErrNotApplicable
	}
	return nil, nil, 0, fmt.Errorf("rep: selector: no applicable representation: %w", first)
}

// Classify reports which representation the Section 6 order picks for
// the invocation — the first applicable entry, "" when none applies —
// for diagnostics and the representation example binary. Store may
// land on a later entry if that candidate declines the concrete value.
func (s *Selector) Classify(ictx *client.Context) string {
	for _, spec := range s.l1 {
		if spec.Applicable(ictx) {
			return spec.Store.Name()
		}
	}
	return ""
}

// Store implements ValueStore: one walk over the Section 6 order. The
// payload is wrapped so Load knows which representation produced it.
func (s *Selector) Store(ictx *client.Context) (any, int, error) {
	spec, payload, size, err := s.walk(s.l1, ictx, false)
	if err != nil {
		return nil, 0, err
	}
	//lint:ignore aliascopy the payload comes from a registered representation's Store, which already enforces the copy discipline; the wrapper only routes Load back to it
	return &selPayload{store: spec.Store, payload: payload}, size, nil
}

// Load implements ValueStore: one type assertion and the producing
// representation's Load.
//
//lint:hotpath
func (s *Selector) Load(payload any) (any, error) {
	sp, ok := payload.(*selPayload)
	if !ok {
		return nil, errSelPayload
	}
	return sp.store.Load(sp.payload)
}

var errSelPayload = errors.New("rep: selector: payload was not stored by a selector")

// selPayload routes a cached payload back to the representation that
// produced it.
type selPayload struct {
	store   ValueStore
	payload any
}

// StoreWire encodes the invocation's result for remote tiers: one walk
// over wirePreference, returning the chosen representation's short
// registry name (what tier.Entry.Rep carries) and the wire bytes. The
// chosen candidate must actually produce bytes for this concrete
// value, so the walk falls through on errors.
func (s *Selector) StoreWire(ictx *client.Context) (rep string, data []byte, size int, err error) {
	spec, payload, size, err := s.walk(s.wire, ictx, true)
	if err != nil {
		return "", nil, 0, err
	}
	return spec.Name, payload.([]byte), size, nil
}

// LoadWire reconstructs a payload from wire bytes produced under rep
// (possibly by another process), returning the payload and the store
// that materializes it, ready for an L1 fill.
func (s *Selector) LoadWire(rep string, data []byte) (any, ValueStore, error) {
	spec, err := s.reg.ValueSpecFor(rep)
	if err != nil {
		return nil, nil, err
	}
	ws, ok := spec.Store.(WireStore)
	if !ok {
		return nil, nil, fmt.Errorf("rep: %q is not a wire-capable representation", rep)
	}
	payload, err := ws.DecodeWire(data)
	if err != nil {
		return nil, nil, err
	}
	return payload, spec.Store, nil
}
