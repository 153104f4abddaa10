package rep

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/client"
)

// sectionSix is the paper's Section 6 "optimal configuration" as an
// order over registry names: the first entry whose applicability
// predicate holds is the classified representation.
//
//	raw      stream-accepting consumer → raw response replay
//	ref      immutable types (and nil) → pass by reference
//	clone    Cloner implementations    → copy by clone
//	reflect  bean-type object graphs   → copy by reflection
//	sax      anything with a message   → SAX event sequence
//	xml      anything with response XML → the XML message
//
// Raw replay leads: it predates the Section 6 list, which only
// considered object results, and for a consumer that relays bytes it
// beats every object representation (no copy-out at all). The paper's
// list omits clone (its WSDL compiler did not yet emit clone methods)
// but argues it should; ours does, so clone slots in right after
// immutability. The paper's serialization slot folds into reflection:
// in Go a serializable graph is a bean graph (DESIGN.md §2), so gob
// could only ever follow reflect with the same predicate. The wire
// counterpart is wirePreference (wire.go).
var sectionSix = []string{"raw", "ref", "clone", "reflect", "sax", "xml"}

// autoName is the selector's display name: what the ledger and the
// evaluation tables print for the Section 6 policy, so it stays
// byte-identical across refactors. A cache's copy-in, copy-out and
// per-representation series do not carry it: core keeps the
// representation Pick chose, and those series name the representation
// that holds each entry. Only a fill no representation takes is
// labelled with it.
const autoName = "Auto (optimal configuration)"

// Selector is the one representation-selection mechanism (DESIGN.md
// §5e): a ValueStore that decides, per fill, which registered
// representation holds the result — for the in-process L1 (Pick, or
// Store and Load) and for byte-oriented remote tiers (AppendWire,
// LoadWire).
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
		wire: reg.ordered(wirePreference),
	}
}

// Name implements ValueStore.
func (s *Selector) Name() string { return autoName }

// Pick is the L1 selection loop: the first candidate in the Section 6
// order that is applicable to the invocation and whose Store accepts
// the concrete value wins, and Pick returns it with its payload and
// size. A cache that keeps the returned store beside the payload loads
// it directly and names it in its metrics (core does); Store is the
// same walk for a caller that only holds the payload. The walk
// continues only past ErrNotApplicable — applicability is a type-level
// prediction the concrete value may refute, e.g. a value whose pointer
// type is the Cloner — and aborts on any other error, wrapped with the
// representation's name. AppendWire is the same walk over the wire
// order.
//
// Skipping an inapplicable candidate is the same as calling it only
// because every representation in sectionSix returns ErrNotApplicable
// whenever its predicate is false (DESIGN.md §5e lists the six).
func (s *Selector) Pick(ictx *client.Context) (ValueStore, any, int, error) {
	for _, spec := range s.l1 {
		if !spec.Applicable(ictx) {
			continue
		}
		payload, size, err := spec.Store.Store(ictx)
		if err == nil {
			return spec.Store, payload, size, nil
		}
		if !errors.Is(err, ErrNotApplicable) {
			return nil, nil, 0, fmt.Errorf("rep: selector: %s: %w", spec.Store.Name(), err)
		}
	}
	return nil, nil, 0, fmt.Errorf("rep: selector: no applicable representation: %w", ErrNotApplicable)
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

// Store implements ValueStore: one walk over the Section 6 order (Pick).
// The payload is wrapped so Load knows which representation produced
// it.
func (s *Selector) Store(ictx *client.Context) (any, int, error) {
	store, payload, size, err := s.Pick(ictx)
	if err != nil {
		return nil, 0, err
	}
	return &selPayload{store: store, payload: payload}, size, nil
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

// AppendWire encodes the invocation's result for remote tiers onto
// dst: one walk over wirePreference, returning the chosen
// representation's short registry name (what tier.Entry.Rep carries)
// and dst extended by its wire bytes. The chosen candidate must
// actually produce bytes for this concrete value, so the walk keeps
// going past any error and reports the first: a tier write is best
// effort, and a later candidate that can hold the result beats giving
// up on the first one's failure. A store with an append form
// (wireAppender) encodes straight into dst; any other goes through
// Store and EncodeWire, and its bytes are copied in.
func (s *Selector) AppendWire(dst []byte, ictx *client.Context) (string, []byte, error) {
	var first error
	for _, spec := range s.wire {
		if !spec.Applicable(ictx) {
			continue
		}
		out, err := appendWire(spec.Store.(WireStore), dst, ictx)
		if err == nil {
			return spec.Name, out, nil
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		first = ErrNotApplicable
	}
	return "", dst, fmt.Errorf("rep: selector: no applicable representation: %w", first)
}

// LoadWire fills ictx from wire bytes produced under rep (possibly by
// another process) as the pivot would have filled it, so an L1 fill
// through Pick treats a tier hit like an origin response (DESIGN.md
// §5h). What each wire form supplies:
//
//   - The envelope forms (raw, xmltmpl, xml) set ResponseXML to data.
//     Result is a Streamed only for an AcceptStream consumer reading a
//     streaming entry (raw, xmltmpl); any other consumer gets the
//     envelope decoded, as the pivot would have decoded it.
//   - compact-sax sets ResponseEvents to the decoded sequence and
//     Result to its replay.
//   - binser (and gob) set Result only: the bytes are the object, with
//     no envelope. Such an entry read by a stream consumer therefore
//     lands on the object representation an origin fill would not have
//     picked (raw); compact-sax, which holds events but no envelope
//     bytes either, lands on the event representation the same way.
//
// data is retained (callers hand over ownership, as for DecodeWire).
// Every failure wraps ErrCorruptWire, and leaves ictx as it was.
func (s *Selector) LoadWire(rep string, data []byte, ictx *client.Context) error {
	if err := s.loadWire(rep, data, ictx); err != nil {
		if !errors.Is(err, ErrCorruptWire) {
			err = fmt.Errorf("%w: %w", ErrCorruptWire, err)
		}
		return fmt.Errorf("rep: selector: %s entry: %w", rep, err)
	}
	return nil
}

func (s *Selector) loadWire(rep string, data []byte, ictx *client.Context) error {
	spec, ws, err := s.wireSpec(rep)
	if err != nil {
		return err
	}
	if l, ok := ws.(wireLoader); ok {
		v, err := l.LoadWire(data)
		if err != nil {
			return err
		}
		ictx.Result = v
		return nil
	}
	var xml []byte
	if slices.Contains(envelopeWire, spec.Name) {
		xml = data
		if !ictx.AcceptStream {
			v, err := result(s.reg.codec.DecodeEnvelope(data))
			if err != nil {
				return err
			}
			ictx.ResponseXML, ictx.Result = xml, v
			return nil
		}
	}
	payload, err := ws.DecodeWire(data)
	if err != nil {
		return err
	}
	v, err := spec.Store.Load(payload)
	if err != nil {
		return err
	}
	if p, ok := payload.(*eventPayload); ok {
		ictx.ResponseEvents = p.src.Events()
	}
	ictx.ResponseXML, ictx.Result = xml, v
	return nil
}

// WirePayload decodes wire bytes produced under rep into the payload
// the wire representation itself loads, and returns that
// representation: what an L1 keeps for a promoted entry its own store
// declines. data is retained.
func (s *Selector) WirePayload(rep string, data []byte) (any, ValueStore, error) {
	_, ws, err := s.wireSpec(rep)
	if err != nil {
		return nil, nil, err
	}
	payload, err := ws.DecodeWire(data)
	if err != nil {
		return nil, nil, err
	}
	return payload, ws, nil
}

// wireSpec resolves a wire representation by name.
func (s *Selector) wireSpec(rep string) (*ValueSpec, WireStore, error) {
	spec, err := s.reg.ValueSpecFor(rep)
	if err != nil {
		return nil, nil, err
	}
	ws, ok := spec.Store.(WireStore)
	if !ok {
		return nil, nil, fmt.Errorf("rep: %q is not a wire-capable representation", rep)
	}
	return spec, ws, nil
}
