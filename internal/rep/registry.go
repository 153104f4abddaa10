package rep

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// KeySpec is one registered cache key strategy: the generator plus its
// Table 2 row.
type KeySpec struct {
	// Name is the short resolvable name ("string", "gob", ...).
	Name string
	// Gen is the strategy itself.
	Gen KeyGenerator
	// Info is the strategy's Table 2 row.
	Info RepresentationInfo
}

// ValueSpec is one registered cache value representation: the store,
// its Table 3 row, an applicability predicate, and the label its stage
// latencies are recorded under in the obs layer.
type ValueSpec struct {
	// Name is the short resolvable name ("sax", "ref", ...).
	Name string
	// Store is the representation itself.
	Store ValueStore
	// Info is the representation's Table 3 row.
	Info RepresentationInfo
	// Stage is the representation label used for obs stage series; by
	// convention Store.Name(), matching the copyin/copyout series the
	// cache core records.
	Stage string
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
// The two selection policies resolve like representations: "auto" is
// the Selector with sampling off (the static Section 6 order) and
// "adaptive" the same Selector with sampling on; Store returns a fresh
// selector per call so independent caches keep independent cost
// models.
type Registry struct {
	types *typemap.Registry
	codec *soap.Codec

	mu         sync.RWMutex
	keys       map[string]*KeySpec
	keyOrder   []string
	values     map[string]*ValueSpec
	valueOrder []string
}

// NewRegistry returns a registry pre-populated with every built-in key
// strategy and value representation, bound to the given type registry
// and codec.
func NewRegistry(types *typemap.Registry, codec *soap.Codec) *Registry {
	r := &Registry{
		types:  types,
		codec:  codec,
		keys:   make(map[string]*KeySpec),
		values: make(map[string]*ValueSpec),
	}
	r.registerBuiltins()
	return r
}

// Types returns the underlying type registry.
func (r *Registry) Types() *typemap.Registry { return r.types }

// Codec returns the underlying SOAP codec.
func (r *Registry) Codec() *soap.Codec { return r.codec }

// RegisterType binds an XML qualified name to the Go type of prototype
// in the underlying type registry — the same contract as
// typemap.Registry.Register, re-exported so application packages can
// write their RegisterTypes hook against the representation layer
// alone.
func (r *Registry) RegisterType(name typemap.QName, prototype any) error {
	return r.types.Register(name, prototype)
}

// RegisterKey adds (or replaces) a key strategy under spec.Name.
func (r *Registry) RegisterKey(spec KeySpec) error {
	if spec.Name == "" || spec.Gen == nil {
		return fmt.Errorf("rep: registry: key spec needs a name and a generator")
	}
	name := strings.ToLower(spec.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.keys[name]; !ok {
		r.keyOrder = append(r.keyOrder, name)
	}
	r.keys[name] = &spec
	return nil
}

// RegisterValue adds (or replaces) a value representation under
// spec.Name. A nil Applicable means "always applicable"; an empty
// Stage defaults to Store.Name().
func (r *Registry) RegisterValue(spec ValueSpec) error {
	if spec.Name == "" || spec.Store == nil {
		return fmt.Errorf("rep: registry: value spec needs a name and a store")
	}
	if spec.Stage == "" {
		spec.Stage = spec.Store.Name()
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

// Key resolves a key strategy by short name or display name
// (case-insensitive).
func (r *Registry) Key(name string) (KeyGenerator, error) {
	spec, err := r.KeySpecFor(name)
	if err != nil {
		return nil, err
	}
	return spec.Gen, nil
}

// KeySpecFor resolves a key spec by short name or display name.
func (r *Registry) KeySpecFor(name string) (*KeySpec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if spec, ok := r.keys[strings.ToLower(name)]; ok {
		return spec, nil
	}
	for _, spec := range r.keys {
		if strings.EqualFold(spec.Gen.Name(), name) {
			return spec, nil
		}
	}
	return nil, fmt.Errorf("rep: registry: unknown key strategy %q (have %s)",
		name, strings.Join(r.keyNamesLocked(), ", "))
}

// Store resolves a value store by short name or display name
// (case-insensitive). Two names resolve to selection policies rather
// than registered representations: "auto" returns a static Selector
// and "adaptive" an adaptive one, both over this registry's
// representations (fresh per call, so independent caches keep
// independent cost models).
func (r *Registry) Store(name string) (ValueStore, error) {
	switch strings.ToLower(name) {
	case "auto":
		return NewStaticSelector(r), nil
	case "adaptive":
		return NewAdaptiveSelector(SelectorConfig{Registry: r})
	}
	spec, err := r.ValueSpecFor(name)
	if err != nil {
		return nil, err
	}
	return spec.Store, nil
}

// ValueSpecFor resolves a value spec by short name or display name.
// The selection policies ("auto", "adaptive") are not specs; resolve
// those through Store.
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
	return nil, fmt.Errorf("rep: registry: unknown value representation %q (have %s, auto, adaptive)",
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

// Keys returns the registered key specs in registration order.
func (r *Registry) Keys() []*KeySpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*KeySpec, 0, len(r.keyOrder))
	for _, name := range r.keyOrder {
		out = append(out, r.keys[name])
	}
	return out
}

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

// KeyNames returns the resolvable short key names, sorted.
func (r *Registry) KeyNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.keyNamesLocked()
}

// ValueNames returns the resolvable short value names, sorted. The
// selection policies "auto" and "adaptive" are additionally accepted
// by Store but are not listed here.
func (r *Registry) ValueNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.valueNamesLocked()
}

func (r *Registry) keyNamesLocked() []string {
	out := append([]string(nil), r.keyOrder...)
	sort.Strings(out)
	return out
}

func (r *Registry) valueNamesLocked() []string {
	out := append([]string(nil), r.valueOrder...)
	sort.Strings(out)
	return out
}

// registerBuiltins populates the catalog with the Table 2 key
// strategies and Table 3 value representations this implementation
// provides, in the order the tables list them.
func (r *Registry) registerBuiltins() {
	types, codec := r.types, r.codec
	keyRows := KeyRepresentations()
	_ = r.RegisterKey(KeySpec{Name: "xml", Gen: NewXMLMessageKey(codec), Info: keyRows[0]})
	_ = r.RegisterKey(KeySpec{Name: "binser", Gen: NewBinserKey(types), Info: keyRows[1]})
	_ = r.RegisterKey(KeySpec{Name: "gob", Gen: NewGobKey(), Info: keyRows[1]})
	_ = r.RegisterKey(KeySpec{Name: "string", Gen: NewStringKey(), Info: keyRows[2]})

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
		Name: "compact-sax", Store: NewCompactSAXStore(codec), Info: valueRows[1],
		Applicable: hasMessage,
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "dom", Store: NewDOMStore(codec), Info: valueRows[1],
		Applicable: hasMessage,
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "binser", Store: NewBinserStore(types), Info: valueRows[2],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsBean },
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "gob", Store: NewGobStore(types), Info: valueRows[2],
		Applicable: func(ictx *client.Context) bool { return info(ictx).IsGobSafe },
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
	// they relay bytes may be served by them.
	_ = r.RegisterValue(ValueSpec{
		Name: "raw", Store: NewRawStreamStore(), Info: valueRows[6],
		Applicable: func(ictx *client.Context) bool {
			return ictx.AcceptStream && len(ictx.ResponseXML) > 0
		},
	})
	_ = r.RegisterValue(ValueSpec{
		Name: "xmltmpl", Store: NewTemplateStore(), Info: valueRows[7],
		Applicable: func(ictx *client.Context) bool {
			return ictx.AcceptStream && (len(ictx.ResponseEvents) > 0 || len(ictx.ResponseXML) > 0)
		},
	})
}
