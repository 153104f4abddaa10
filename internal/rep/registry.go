package rep

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// keySpec is one built-in cache key strategy: the generator plus its
// Table 2 row.
type keySpec struct {
	// Name is the short name the ledger labels it by ("string", "gob", ...).
	Name string
	// Gen is the strategy itself.
	Gen KeyGenerator
	// Info is the strategy's Table 2 row.
	Info RepresentationInfo
}

// ValueSpec is one registered cache value representation: the store,
// its Table 3 row and an applicability predicate.
type ValueSpec struct {
	// Name is the short resolvable name ("sax", "ref", ...).
	Name string
	// Store is the representation itself.
	Store ValueStore
	// Info is the representation's Table 3 row.
	Info RepresentationInfo
	// Applicable reports whether the representation can hold this
	// invocation's result — the Table 3 limitation as a predicate, and
	// the only statement of it the Selector consults. It must be cheap
	// (consulted per fill). A representation may still decline at Store
	// time for concrete values the type-level check cannot see; the
	// converse is an obligation: whenever the predicate rules the result
	// out, Store returns ErrNotApplicable too, so skipping a candidate
	// and asking it are the same. (The streaming representations'
	// predicates also demand the consumer's consent, AcceptStream, which
	// only the predicate checks.)
	Applicable func(ictx *client.Context) bool
}

// Registry is the name → representation catalog the other layers
// resolve against: core's config, the server-side response cache, and
// the cmd/* -rep flags all name representations instead of
// constructing concrete stores. It wraps the typemap registry (type
// analysis) and the SOAP codec (message-level representations) the
// concrete stores need.
//
// The selection policy resolves like a representation: "auto" is the
// Selector, the static Section 6 order. The key side is the fixed
// Table 2 list (Keys); nothing resolves a key strategy by name.
type Registry struct {
	types *typemap.Registry
	codec *soap.Codec
	keys  []*keySpec

	mu         sync.RWMutex
	values     map[string]*ValueSpec
	valueOrder []string
}

// NewRegistry returns a registry pre-populated with every built-in key
// strategy and value representation, bound to the given type registry
// and codec.
func NewRegistry(types *typemap.Registry, codec *soap.Codec) *Registry {
	keyRows := KeyRepresentations()
	r := &Registry{
		types: types,
		codec: codec,
		keys: []*keySpec{
			{Name: "xml", Gen: NewXMLMessageKey(codec), Info: keyRows[0]},
			{Name: "binser", Gen: NewBinserKey(types), Info: keyRows[1]},
			{Name: "gob", Gen: newGobKey(), Info: keyRows[1]},
			{Name: "string", Gen: NewStringKey(), Info: keyRows[2]},
		},
		values: make(map[string]*ValueSpec),
	}
	r.registerBuiltins()
	return r
}

// RegisterValue adds (or replaces) a value representation under
// spec.Name. A nil Applicable means "always applicable".
//
//lint:ignore api core's TestSelectorFillStoresOnce and TestSelectorUntypedRecordsOnce register scripted stores
func (r *Registry) RegisterValue(spec ValueSpec) error {
	if spec.Name == "" || spec.Store == nil {
		return fmt.Errorf("rep: registry: value spec needs a name and a store")
	}
	if spec.Applicable == nil {
		spec.Applicable = func(*client.Context) bool { return true }
	}
	name := strings.ToLower(spec.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.values[name]; !ok {
		r.valueOrder = append(r.valueOrder, name)
	}
	r.values[name] = &spec
	return nil
}

// Store resolves a value store by short name or display name
// (case-insensitive). One name resolves to the selection policy rather
// than a registered representation: "auto" returns a Selector over
// this registry's representations.
func (r *Registry) Store(name string) (ValueStore, error) {
	if strings.EqualFold(name, "auto") {
		return NewStaticSelector(r), nil
	}
	spec, err := r.ValueSpecFor(name)
	if err != nil {
		return nil, err
	}
	return spec.Store, nil
}

// ValueSpecFor resolves a value spec by short name or display name.
// The selection policy ("auto") is not a spec; resolve it through
// Store.
func (r *Registry) ValueSpecFor(name string) (*ValueSpec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if spec, ok := r.values[strings.ToLower(name)]; ok {
		return spec, nil
	}
	for _, spec := range r.values {
		if strings.EqualFold(spec.Store.Name(), name) {
			return spec, nil
		}
	}
	return nil, fmt.Errorf("rep: registry: unknown value representation %q (have %s, auto)",
		name, strings.Join(r.valueNamesLocked(), ", "))
}

// ordered returns the registered value specs named by order, in that
// order; names nothing is registered under are skipped.
func (r *Registry) ordered(order []string) []*ValueSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ValueSpec, 0, len(order))
	for _, name := range order {
		if spec, ok := r.values[name]; ok {
			out = append(out, spec)
		}
	}
	return out
}

// Keys returns the built-in key specs in Table 2 order.
func (r *Registry) Keys() []*keySpec { return slices.Clone(r.keys) }

// Values returns the registered value specs in registration order.
func (r *Registry) Values() []*ValueSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ValueSpec, 0, len(r.valueOrder))
	for _, name := range r.valueOrder {
		out = append(out, r.values[name])
	}
	return out
}

func (r *Registry) valueNamesLocked() []string {
	out := append([]string(nil), r.valueOrder...)
	sort.Strings(out)
	return out
}

// registerBuiltins populates the catalog with the Table 3 value
// representations this implementation provides, in the order the table
// lists them.
func (r *Registry) registerBuiltins() {
	types, codec := r.types, r.codec
	valueRows := ValueRepresentations()
	hasMessage := func(ictx *client.Context) bool {
		return len(ictx.ResponseEvents) > 0 || len(ictx.ResponseXML) > 0
	}
	info := func(ictx *client.Context) *typemap.TypeInfo {
		return types.InfoFor(ictx.Result)
	}
	_ = r.RegisterValue(ValueSpec{
		Name: "xml", Store: NewXMLMessageStore(codec), Info: valueRows[0],
		Applicable: func(ictx *client.Context) bool { return len(ictx.ResponseXML) > 0 },
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "sax", Store: NewSAXEventsStore(codec), Info: valueRows[1],
		Applicable: hasMessage,
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "compact-sax", Store: newCompactSAXStore(codec), Info: valueRows[1],
		Applicable: hasMessage,
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "dom", Store: newDOMStore(codec), Info: valueRows[1],
		Applicable: hasMessage,
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "binser", Store: NewBinserStore(types), Info: valueRows[2],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsBean },
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "gob", Store: newGobStore(types), Info: valueRows[2],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsBean },
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "reflect", Store: NewReflectCopyStore(types), Info: valueRows[3],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsBean },
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "clone", Store: NewCloneCopyStore(), Info: valueRows[4],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsCloneable },
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "ref", Store: NewRefStore(types, false), Info: valueRows[5],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsImmutable },
	})
	// The streaming representations (DESIGN.md §5i) are gated on the
	// invocation's consent (Context.AcceptStream): their hits yield
	// byte streams, not decoded objects, so only consumers that declared
	// they relay bytes may be served by them. Both replay the response's
	// bytes, so neither applies without them.
	streams := func(ictx *client.Context) bool {
		return ictx.AcceptStream && len(ictx.ResponseXML) > 0
	}
	_ = r.RegisterValue(ValueSpec{
		Name: "raw", Store: NewRawStreamStore(), Info: valueRows[6], Applicable: streams,
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "xmltmpl", Store: NewTemplateStore(), Info: valueRows[7], Applicable: streams,
	})
}
