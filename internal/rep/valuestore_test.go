package rep

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/soap"
)

// allStores builds every representation against the fixture.
func allStores(f *fixture) map[string]ValueStore {
	return map[string]ValueStore{
		"xml":        NewXMLMessageStore(f.codec),
		"sax":        NewSAXEventsStore(f.codec),
		"saxcompact": newCompactSAXStore(f.codec),
		"dom":        newDOMStore(f.codec),
		"gob":        newGobStore(f.reg),
		"binser":     NewBinserStore(f.reg),
		"reflect":    NewReflectCopyStore(f.reg),
	}
}

func TestAllStoresRoundTripBean(t *testing.T) {
	f := newFixture(t)
	orig := &item{Name: "res", Score: 2.5, Tags: []string{"a", "b"}}
	ictx := f.ictx(t, "get", orig)

	for name, store := range allStores(f) {
		payload, size, err := store.Store(ictx)
		if err != nil {
			t.Errorf("%s: store: %v", name, err)
			continue
		}
		if size <= 0 {
			t.Errorf("%s: size = %d", name, size)
		}
		got, err := store.Load(payload)
		if err != nil {
			t.Errorf("%s: load: %v", name, err)
			continue
		}
		gi, ok := got.(*item)
		if !ok {
			t.Errorf("%s: loaded %T", name, got)
			continue
		}
		if !reflect.DeepEqual(gi, orig) {
			t.Errorf("%s: loaded %+v, want %+v", name, gi, orig)
		}
	}
}

func TestCloneCopyStore(t *testing.T) {
	f := newFixture(t)
	store := NewCloneCopyStore()
	orig := &cloneableItem{Name: "c"}
	ictx := f.ictx(t, "get", orig)

	payload, _, err := store.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if payload == any(orig) {
		t.Error("store did not clone")
	}
	got, err := store.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*cloneableItem)
	if gi.Name != "c" || gi == orig {
		t.Errorf("got %+v", gi)
	}

	// Non-Cloner is rejected with ErrNotApplicable.
	ictx2 := f.ictx(t, "get", &item{})
	if _, _, err := store.Store(ictx2); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

func TestRefStoreImmutableOnly(t *testing.T) {
	f := newFixture(t)
	store := NewRefStore(f.reg, false)

	ictx := f.ictx(t, "spell", "suggestion text")
	payload, _, err := store.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(payload)
	if err != nil || got != "suggestion text" {
		t.Errorf("got %#v, %v", got, err)
	}

	// Mutable result rejected unless the policy says read-only.
	ictx2 := f.ictx(t, "get", &item{})
	if _, _, err := store.Store(ictx2); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}

	relaxed := NewRefStore(f.reg, true)
	orig := &item{Name: "shared"}
	ictx3 := f.ictx(t, "get", orig)
	payload3, _, err := relaxed.Store(ictx3)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := relaxed.Load(payload3)
	if err != nil {
		t.Fatal(err)
	}
	if got3 != any(orig) {
		t.Error("read-only ref store must share the reference")
	}
}

func TestGobStoreRejectsUnexportedState(t *testing.T) {
	f := newFixture(t)
	store := newGobStore(f.reg)
	ictx := f.ictx(t, "get", nil)
	ictx.Result = &opaqueResult{Name: "x", secret: 7}
	if _, _, err := store.Store(ictx); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable (gob would drop the unexported field)", err)
	}
}

func TestReflectStoreRejectsNonBean(t *testing.T) {
	f := newFixture(t)
	store := NewReflectCopyStore(f.reg)
	ictx := f.ictx(t, "get", nil)
	ictx.Result = &opaqueResult{Name: "x", secret: 7}
	if _, _, err := store.Store(ictx); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

func TestDOMStoreFromXMLOnly(t *testing.T) {
	f := newFixture(t)
	store := newDOMStore(f.codec)
	ictx := f.ictx(t, "get", &item{Name: "tree"})
	ictx.ResponseEvents = nil // force the parse-from-XML path
	payload, size, err := store.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Errorf("size = %d", size)
	}
	got, err := store.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*item).Name != "tree" {
		t.Errorf("got %+v", got)
	}
	if _, err := store.Load("bogus"); err == nil {
		t.Error("bad payload accepted")
	}
	// No captured response at all: refused.
	if _, _, err := store.Store(f.reqCtx("get")); err == nil {
		t.Error("empty context accepted")
	}
}

func TestCompactSAXStoreSmallerThanNaive(t *testing.T) {
	f := newFixture(t)
	ictx := f.ictx(t, "get", &item{Name: "x", Tags: []string{"a", "b", "c", "d"}})
	_, naive, err := NewSAXEventsStore(f.codec).Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	_, compact, err := newCompactSAXStore(f.codec).Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if compact >= naive {
		t.Errorf("compact %d not smaller than naive %d", compact, naive)
	}
}

func TestCompactSAXStoreWithoutRecordedEvents(t *testing.T) {
	f := newFixture(t)
	store := newCompactSAXStore(f.codec)
	ictx := f.ictx(t, "get", &item{Name: "lazy"})
	ictx.ResponseEvents = nil
	payload, _, err := store.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*item).Name != "lazy" {
		t.Errorf("got %+v", got)
	}
	if _, err := store.Load(42); err == nil {
		t.Error("bad payload accepted")
	}
}

func TestSAXStoreWithoutRecordedEvents(t *testing.T) {
	// When the client did not record events, the store records from the
	// raw XML on the miss path.
	f := newFixture(t)
	store := NewSAXEventsStore(f.codec)
	ictx := f.ictx(t, "get", &item{Name: "lazy"})
	ictx.ResponseEvents = nil

	payload, _, err := store.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*item).Name != "lazy" {
		t.Errorf("got %+v", got)
	}
}

func TestXMLStoreRequiresResponse(t *testing.T) {
	f := newFixture(t)
	store := NewXMLMessageStore(f.codec)
	ictx := f.reqCtx("get")
	if _, _, err := store.Store(ictx); err == nil {
		t.Error("expected error without response XML")
	}
}

func TestStoreLoadWrongPayloadTypes(t *testing.T) {
	f := newFixture(t)
	if _, err := NewXMLMessageStore(f.codec).Load(42); err == nil {
		t.Error("xml store accepted bad payload")
	}
	if _, err := NewSAXEventsStore(f.codec).Load(42); err == nil {
		t.Error("sax store accepted bad payload")
	}
	if _, err := newGobStore(f.reg).Load(42); err == nil {
		t.Error("gob store accepted bad payload")
	}
	if _, err := NewCloneCopyStore().Load(42); err == nil {
		t.Error("clone store accepted bad payload")
	}
	if _, err := NewStaticSelector(NewRegistry(f.reg, f.codec)).Load(42); err == nil {
		t.Error("auto store accepted bad payload")
	}
}

func TestAutoStoreClassification(t *testing.T) {
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))

	cases := []struct {
		name   string
		result any
		want   string
	}{
		{"string result", "text", "Pass by reference"},
		{"int result", 42, "Pass by reference"},
		{"bytes result", []byte{1, 2}, "Copy by reflection"},
		{"cloneable result", &cloneableItem{Name: "c"}, "Copy by clone"},
		{"bean result", &item{Name: "b"}, "Copy by reflection"},
		{"nil result", nil, "Pass by reference"},
		{"opaque result", &opaqueResult{Name: "o"}, "SAX events sequence"},
	}
	for _, c := range cases {
		ictx := f.ictx(t, "get", nil)
		ictx.Result = c.result
		if got := auto.Classify(ictx); got != c.want {
			t.Errorf("%s: classified %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAutoStoreRoundTripEachClass(t *testing.T) {
	f := newFixture(t)
	auto := NewStaticSelector(NewRegistry(f.reg, f.codec))

	// Immutable: shared.
	ictx := f.ictx(t, "spell", "hello")
	payload, _, err := auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := auto.Load(payload); got != "hello" {
		t.Errorf("got %#v", got)
	}

	// Cloneable: cloned.
	cl := &cloneableItem{Name: "c"}
	ictx = f.ictx(t, "get", cl)
	payload, _, err = auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := auto.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*cloneableItem) == cl || got.(*cloneableItem).Name != "c" {
		t.Errorf("clone class: %#v", got)
	}

	// Bean: reflect-copied.
	b := &item{Name: "bean", Tags: []string{"t"}}
	ictx = f.ictx(t, "get", b)
	payload, _, err = auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err = auto.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*item) == b || !reflect.DeepEqual(got, b) {
		t.Errorf("bean class: %#v", got)
	}

	// Opaque (unexported field): falls to SAX events. The SAX decode
	// constructs a registered type, so the result differs — but the
	// store must at least round-trip without error using the response
	// on the wire. Register nothing extra; the opaque value cannot be
	// encoded, so fabricate the context from a bean and swap the
	// result type to force the SAX path.
	ictx = f.ictx(t, "get", &item{Name: "wire"})
	ictx.Result = &opaqueResult{Name: "wire", secret: 1}
	payload, _, err = auto.Store(ictx)
	if err != nil {
		t.Fatal(err)
	}
	got, err = auto.Load(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*item).Name != "wire" {
		t.Errorf("sax class: %#v", got)
	}
}

func TestKeyGenerators(t *testing.T) {
	f := newFixture(t)
	gens := []KeyGenerator{
		NewXMLMessageKey(f.codec),
		newGobKey(),
		NewBinserKey(f.reg),
		NewStringKey(),
	}
	params1 := []soap.Param{{Name: "q", Value: "golang"}, {Name: "n", Value: 10}}
	params2 := []soap.Param{{Name: "q", Value: "golang"}, {Name: "n", Value: 11}}

	for _, g := range gens {
		k1a, err := g.Key(f.reqCtx("search", params1...))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		k1b, err := g.Key(f.reqCtx("search", params1...))
		if err != nil {
			t.Fatal(err)
		}
		if k1a != k1b {
			t.Errorf("%s: key not deterministic", g.Name())
		}
		k2, err := g.Key(f.reqCtx("search", params2...))
		if err != nil {
			t.Fatal(err)
		}
		if k1a == k2 {
			t.Errorf("%s: different params same key", g.Name())
		}
		kOp, err := g.Key(f.reqCtx("other", params1...))
		if err != nil {
			t.Fatal(err)
		}
		if kOp == k1a {
			t.Errorf("%s: different operations same key", g.Name())
		}
		// Different endpoints must not collide.
		c2 := f.reqCtx("search", params1...)
		c2.Endpoint = "http://other/endpoint"
		kEp, err := g.Key(c2)
		if err != nil {
			t.Fatal(err)
		}
		if kEp == k1a {
			t.Errorf("%s: different endpoints same key", g.Name())
		}
	}
}

func TestStringKeyRejectsStructParam(t *testing.T) {
	f := newFixture(t)
	g := NewStringKey()
	if _, err := g.Key(f.reqCtx("op", soap.Param{Name: "x", Value: &item{}})); err == nil {
		t.Error("expected error for struct param without Stringer")
	}
}

func TestStringKeyStringerParam(t *testing.T) {
	f := newFixture(t)
	g := NewStringKey()
	k, err := g.Key(f.reqCtx("op", soap.Param{Name: "x", Value: stringerParam{v: "S"}}))
	if err != nil {
		t.Fatal(err)
	}
	if k == "" {
		t.Error("empty key")
	}
}

type stringerParam struct{ v string }

func (s stringerParam) String() string { return s.v }

func TestGobKeyRejectsFunc(t *testing.T) {
	f := newFixture(t)
	g := newGobKey()
	if _, err := g.Key(f.reqCtx("op", soap.Param{Name: "f", Value: func() {}})); err == nil {
		t.Error("expected error for func param")
	}
}

func TestBinserKeyRejectsUnregisteredStruct(t *testing.T) {
	f := newFixture(t)
	g := NewBinserKey(f.reg)
	type loose struct{ X int }
	if _, err := g.Key(f.reqCtx("op", soap.Param{Name: "p", Value: &loose{}})); err == nil {
		t.Error("expected error for unregistered struct param")
	}
	// Registered bean params are fine.
	if _, err := g.Key(f.reqCtx("op", soap.Param{Name: "p", Value: &item{Name: "x"}})); err != nil {
		t.Errorf("registered bean param rejected: %v", err)
	}
}

func TestBinserStoreRejectsOpaque(t *testing.T) {
	f := newFixture(t)
	store := NewBinserStore(f.reg)
	ictx := f.ictx(t, "get", nil)
	ictx.Result = &opaqueResult{Name: "x", secret: 1}
	if _, _, err := store.Store(ictx); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("err = %v, want ErrNotApplicable", err)
	}
}

func TestBinserStoreLoadBadPayload(t *testing.T) {
	f := newFixture(t)
	if _, err := NewBinserStore(f.reg).Load(42); err == nil {
		t.Error("binser store accepted bad payload")
	}
	if _, err := NewBinserStore(f.reg).Load([]byte{255, 255}); err == nil {
		t.Error("binser store accepted garbage bytes")
	}
}

func TestStringKeyAllPrimitiveKinds(t *testing.T) {
	f := newFixture(t)
	g := NewStringKey()
	params := []soap.Param{
		{Name: "a", Value: "s"},
		{Name: "b", Value: true},
		{Name: "c", Value: int(1)},
		{Name: "d", Value: int8(2)},
		{Name: "e", Value: int16(3)},
		{Name: "f", Value: int32(4)},
		{Name: "g", Value: int64(5)},
		{Name: "h", Value: uint(6)},
		{Name: "i", Value: uint16(7)},
		{Name: "j", Value: uint32(8)},
		{Name: "k", Value: uint64(9)},
		{Name: "l", Value: float32(1.5)},
		{Name: "m", Value: float64(2.5)},
		{Name: "n", Value: []byte("bytes")},
		{Name: "o", Value: nil},
	}
	k, err := g.Key(f.reqCtx("op", params...))
	if err != nil {
		t.Fatal(err)
	}
	if k == "" {
		t.Error("empty key")
	}
}

func TestStoreAndKeyGenNames(t *testing.T) {
	f := newFixture(t)
	names := map[string]bool{}
	for _, s := range []ValueStore{
		NewXMLMessageStore(f.codec), NewSAXEventsStore(f.codec),
		newCompactSAXStore(f.codec), newDOMStore(f.codec),
		newGobStore(f.reg), NewBinserStore(f.reg),
		NewReflectCopyStore(f.reg), NewCloneCopyStore(),
		NewRefStore(f.reg, false), NewStaticSelector(NewRegistry(f.reg, f.codec)),
	} {
		if s.Name() == "" || names[s.Name()] {
			t.Errorf("store name %q empty or duplicated", s.Name())
		}
		names[s.Name()] = true
	}
	for _, g := range []KeyGenerator{
		NewXMLMessageKey(f.codec), newGobKey(), NewBinserKey(f.reg), NewStringKey(),
	} {
		if g.Name() == "" || names[g.Name()] && g.Name() != "Gob serialization" && g.Name() != "Binary serialization" && g.Name() != "XML message" {
			t.Errorf("keygen name %q empty", g.Name())
		}
	}
}

func TestRepresentationMatrices(t *testing.T) {
	// The Table 2 and Table 3 matrices must cover every shipped
	// strategy family.
	if got := len(KeyRepresentations()); got != 3 {
		t.Errorf("key representations = %d, want 3", got)
	}
	if got := len(ValueRepresentations()); got != 8 {
		t.Errorf("value representations = %d, want 8", got)
	}
	for _, r := range append(KeyRepresentations(), ValueRepresentations()...) {
		if r.Representation == "" || r.Method == "" || r.Limitation == "" {
			t.Errorf("incomplete matrix row %+v", r)
		}
	}
}
