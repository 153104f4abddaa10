package rep

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/client"
)

// fakeChainStore is a scripted candidate for walk tests.
type fakeChainStore struct {
	name   string
	err    error // returned by Store when non-nil
	calls  int
	loaded int
}

func (s *fakeChainStore) Name() string { return s.name }

func (s *fakeChainStore) Store(ictx *client.Context) (any, int, error) {
	s.calls++
	if s.err != nil {
		return nil, 0, s.err
	}
	return s.name, len(s.name), nil
}

func (s *fakeChainStore) Load(payload any) (any, error) {
	s.loaded++
	return payload, nil
}

// scriptedAuto builds a static selector over the built-in registry with
// the Section 6 object representations (ref..xml) replaced by scripted
// stores; each keeps its built-in applicability predicate, so the walk
// under test is the production one.
func scriptedAuto(t *testing.T, f *fixture, stores [5]ValueStore) *Selector {
	t.Helper()
	r := NewRegistry(f.reg, f.codec)
	for i, name := range sectionSix[1:] {
		spec, err := r.ValueSpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		scripted := *spec
		scripted.Store = stores[i]
		if err := r.RegisterValue(scripted); err != nil {
			t.Fatal(err)
		}
	}
	return NewStaticSelector(r)
}

// storedBy names the representation that produced a selector payload.
func storedBy(t *testing.T, payload any) string {
	t.Helper()
	sp, ok := payload.(*selPayload)
	if !ok {
		t.Fatalf("payload is %T, want *selPayload", payload)
	}
	return sp.store.Name()
}

// cloneableBox is cloneable through its pointer type and mutable (the
// slice field), so a *cloneableBox classifies to clone — but a plain
// cloneableBox value does not satisfy the Cloner assertion.
type cloneableBox struct {
	Name string
	Tags []string
}

func (c *cloneableBox) CloneDeep() any {
	out := *c
	out.Tags = append([]string(nil), c.Tags...)
	return &out
}

// TestSelectorSectionSixTable is the Section 6 list as a table: for
// each fixture class, what the static order classifies to, which
// representation actually holds the stored value, and which wire
// representation a tier gets. The golden columns are written out here
// on purpose — they are the paper's decision list, not derived from it.
func TestSelectorSectionSixTable(t *testing.T) {
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))

	full := func(result any) *client.Context {
		ictx := f.ictx(t, "get", &item{Name: "carrier"})
		ictx.Result = result
		return ictx
	}
	xmlOnly := func(result any) *client.Context {
		ictx := full(result)
		ictx.ResponseEvents = nil
		return ictx
	}
	eventsOnly := func(result any) *client.Context {
		ictx := full(result)
		ictx.ResponseXML = nil
		return ictx
	}
	bare := func(result any) *client.Context {
		ictx := f.reqCtx("get")
		ictx.Result = result
		return ictx
	}
	streaming := func(ictx *client.Context) *client.Context {
		ictx.AcceptStream = true
		return ictx
	}

	const none = "" // no representation applies
	cases := []struct {
		name     string
		ictx     *client.Context
		classify string // Selector.Classify
		stored   string // representation behind Store's payload
		wire     string // registry name AppendWire reports
	}{
		{"immutable", full("text"), "Pass by reference", "Pass by reference", "binser"},
		// nil is trivially immutable but no bean, so binser is out.
		{"nil result", full(nil), "Pass by reference", "Pass by reference", "compact-sax"},
		{"cloneable pointer", full(&cloneableItem{Name: "c"}), "Copy by clone", "Copy by clone", "binser"},
		// The clone store declines a value whose pointer type is the
		// Cloner; binser fails hard on a struct the type registry does
		// not know, which the wire walk steps past.
		{"cloneable value, not pointer", full(cloneableBox{Name: "v"}), "Copy by clone", "Copy by reflection", "compact-sax"},
		{"bean", full(&item{Name: "b"}), "Copy by reflection", "Copy by reflection", "binser"},
		{"opaque with events", eventsOnly(&opaqueResult{Name: "o"}), "SAX events sequence", "SAX events sequence", "compact-sax"},
		{"opaque with XML only", xmlOnly(&opaqueResult{Name: "o"}), "SAX events sequence", "SAX events sequence", "compact-sax"},
		{"nothing captured", bare(&opaqueResult{Name: "o"}), none, none, none},
		{"bean, nothing captured", bare(&item{Name: "b"}), "Copy by reflection", "Copy by reflection", "binser"},
		{"stream consumer", streaming(full(&item{Name: "s"})), "Raw response replay", "Raw response replay", "raw"},
		// Both streaming representations replay the response's bytes, so
		// neither applies without them.
		{"stream consumer without XML", streaming(eventsOnly(&item{Name: "s"})), "Copy by reflection", "Copy by reflection", "binser"},
	}
	for _, c := range cases {
		if got := auto.Classify(c.ictx); got != c.classify {
			t.Errorf("%s: classified %q, want %q", c.name, got, c.classify)
		}
		payload, _, err := auto.Store(c.ictx)
		switch {
		case c.stored == none:
			if !errors.Is(err, ErrNotApplicable) {
				t.Errorf("%s: Store err = %v, want ErrNotApplicable", c.name, err)
			}
		case err != nil:
			t.Errorf("%s: Store: %v", c.name, err)
		default:
			if got := storedBy(t, payload); got != c.stored {
				t.Errorf("%s: stored by %q, want %q", c.name, got, c.stored)
			}
			if _, err := auto.Load(payload); err != nil {
				t.Errorf("%s: Load: %v", c.name, err)
			}
		}
		rep, data, err := auto.AppendWire(nil, c.ictx)
		switch {
		case c.wire == none:
			if !errors.Is(err, ErrNotApplicable) {
				t.Errorf("%s: AppendWire err = %v, want ErrNotApplicable", c.name, err)
			}
		case err != nil:
			t.Errorf("%s: AppendWire: %v", c.name, err)
		case rep != c.wire || len(data) == 0:
			t.Errorf("%s: wire = %q (%d bytes), want %q", c.name, rep, len(data), c.wire)
		}
	}
}

func TestAutoStoreCascadesOnNotApplicable(t *testing.T) {
	// A cloneable *type* holding a non-pointer value: classification
	// says clone (the pointer type implements Cloner), but the clone
	// store's interface assertion on the value fails with
	// ErrNotApplicable, so Store must fall through to reflection copy —
	// the exact gap the ErrNotApplicable doc promises to bridge.
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))

	val := cloneableBox{Name: "value-not-pointer", Tags: []string{"t"}}
	ictx := f.ictx(t, "get", &item{Name: "carrier"})
	ictx.Result = val

	if got := auto.Classify(ictx); got != "Copy by clone" {
		t.Fatalf("classified %q, want Copy by clone (value of cloneable type)", got)
	}
	payload, _, err := auto.Store(ictx)
	if err != nil {
		t.Fatalf("cascade did not rescue the fill: %v", err)
	}
	if got := storedBy(t, payload); got != "Copy by reflection" {
		t.Errorf("cascaded to %q, want Copy by reflection", got)
	}
	got, err := auto.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(cloneableBox).Name != "value-not-pointer" {
		t.Errorf("loaded %+v", got)
	}
}

func TestAutoStoreCascadeOrderAndStart(t *testing.T) {
	// Scripted candidates: nothing ahead of the classified entry is
	// consulted and ErrNotApplicable walks the order until a candidate
	// accepts.
	f := newFixture(t)
	na := func(name string) *fakeChainStore {
		return &fakeChainStore{name: name, err: fmt.Errorf("%s: %w", name, ErrNotApplicable)}
	}
	ref := na("ref")
	clone := na("clone")
	refl := na("reflect")
	sax := &fakeChainStore{name: "sax"}
	xml := &fakeChainStore{name: "xml"}
	auto := scriptedAuto(t, f, [5]ValueStore{ref, clone, refl, sax, xml})

	// A cloneable pointer classifies to the clone entry: ref must not be
	// consulted, clone and reflect decline, sax accepts.
	ictx := f.ictx(t, "get", &cloneableItem{Name: "c"})
	payload, size, err := auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if ref.calls != 0 {
		t.Errorf("ref consulted %d times; the walk must start at the classified entry", ref.calls)
	}
	if clone.calls != 1 || refl.calls != 1 || sax.calls != 1 {
		t.Errorf("calls = clone %d, reflect %d, sax %d; want 1 each", clone.calls, refl.calls, sax.calls)
	}
	if xml.calls != 0 {
		t.Errorf("walk overshot the first accepting candidate (xml %d)", xml.calls)
	}
	if size != len("sax") {
		t.Errorf("size = %d", size)
	}
	if got, err := auto.Load(payload); err != nil || got != "sax" {
		t.Errorf("load = %#v, %v", got, err)
	}
}

func TestAutoStoreHardErrorAborts(t *testing.T) {
	// A non-ErrNotApplicable failure must abort the L1 walk, wrapped
	// with the failing representation's name.
	f := newFixture(t)
	boom := errors.New("disk on fire")
	clone := &fakeChainStore{name: "clone-x", err: fmt.Errorf("clone-x: %w", ErrNotApplicable)}
	refl := &fakeChainStore{name: "reflect-x", err: boom}
	sax := &fakeChainStore{name: "sax-x"}
	auto := scriptedAuto(t, f, [5]ValueStore{
		&fakeChainStore{name: "ref-x", err: fmt.Errorf("%w", ErrNotApplicable)},
		clone, refl, sax, &fakeChainStore{name: "xml-x"},
	})

	ictx := f.ictx(t, "get", &cloneableItem{Name: "c"})
	_, _, err := auto.Store(ictx)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the hard error", err)
	}
	if !strings.Contains(err.Error(), "reflect-x") {
		t.Errorf("error %q does not name the failing representation", err)
	}
	if sax.calls != 0 {
		t.Errorf("walk continued past a hard error")
	}
}

func TestAutoStoreExhaustedCascade(t *testing.T) {
	// Nothing captured, opaque result: no entry of the order applies —
	// the error must carry ErrNotApplicable so the cache records a
	// representation miss, not a crash.
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))
	ictx := f.reqCtx("get")
	ictx.Result = &opaqueResult{Name: "o"}
	_, _, err := auto.Store(ictx)
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v, want ErrNotApplicable", err)
	}
	if !strings.Contains(err.Error(), "no applicable representation") {
		t.Errorf("error %q does not say the order was exhausted", err)
	}
}

func TestAutoStoreNilResultRoundTrip(t *testing.T) {
	// nil classifies as immutable and is shared by reference.
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))
	ictx := f.ictx(t, "get", &item{Name: "carrier"})
	ictx.Result = nil
	payload, _, err := auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if got := storedBy(t, payload); got != "Pass by reference" {
		t.Errorf("nil stored as %q", got)
	}
	got, err := auto.Load(payload)
	if err != nil || got != nil {
		t.Errorf("load = %#v, %v", got, err)
	}
}

func TestAutoStoreSAXFallsThroughToXML(t *testing.T) {
	// The sax→xml leg with scripted candidates: an opaque result
	// classifies to sax, which declines; xml must take it, and none of
	// the three inapplicable entries ahead may be asked.
	f := newFixture(t)
	sax := &fakeChainStore{name: "sax-s", err: fmt.Errorf("sax: %w", ErrNotApplicable)}
	xml := &fakeChainStore{name: "xml-s"}
	ahead := [3]*fakeChainStore{{name: "r"}, {name: "c"}, {name: "f"}}
	auto := scriptedAuto(t, f, [5]ValueStore{ahead[0], ahead[1], ahead[2], sax, xml})
	ictx := f.ictx(t, "get", &item{Name: "x"})
	ictx.Result = &opaqueResult{Name: "o"} // classifies to the sax entry
	payload, _, err := auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if sax.calls != 1 || xml.calls != 1 {
		t.Errorf("calls = sax %d, xml %d; want 1 each", sax.calls, xml.calls)
	}
	for _, s := range ahead {
		if s.calls != 0 {
			t.Errorf("inapplicable %q consulted %d times", s.name, s.calls)
		}
	}
	if got := storedBy(t, payload); got != "xml-s" {
		t.Errorf("stored with %q", got)
	}
}
