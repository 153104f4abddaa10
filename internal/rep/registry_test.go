package rep

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/typemap"
)

func newTestRegistry(t *testing.T) (*fixture, *Registry) {
	t.Helper()
	f := newFixture(t)
	return f, NewRegistry(f.reg, f.codec)
}

func TestRegistryResolvesByShortAndDisplayName(t *testing.T) {
	_, r := newTestRegistry(t)

	cases := []struct{ query, want string }{
		{"sax", "SAX events sequence"},
		{"SAX", "SAX events sequence"},
		{"SAX events sequence", "SAX events sequence"},
		{"compact-sax", "SAX events (compact)"},
		{"dom", "DOM tree"},
		{"xml", "XML message"},
		{"gob", "Gob serialization"},
		{"binser", "Binary serialization"},
		{"reflect", "Copy by reflection"},
		{"clone", "Copy by clone"},
		{"ref", "Pass by reference"},
	}
	for _, c := range cases {
		store, err := r.Store(c.query)
		if err != nil {
			t.Errorf("Store(%q): %v", c.query, err)
			continue
		}
		if store.Name() != c.want {
			t.Errorf("Store(%q).Name() = %q, want %q", c.query, store.Name(), c.want)
		}
	}

	for _, c := range []struct{ query, want string }{
		{"string", "String concatenation"},
		{"xml", "XML message"},
		{"gob", "Gob serialization"},
		{"binser", "Binary serialization"},
		{"String concatenation", "String concatenation"},
	} {
		gen, err := r.Key(c.query)
		if err != nil {
			t.Errorf("Key(%q): %v", c.query, err)
			continue
		}
		if gen.Name() != c.want {
			t.Errorf("Key(%q).Name() = %q, want %q", c.query, gen.Name(), c.want)
		}
	}
}

func TestRegistryResolvesSelectionPolicies(t *testing.T) {
	_, r := newTestRegistry(t)
	auto, err := r.Store("auto")
	if err != nil {
		t.Fatal(err)
	}
	if sel, ok := auto.(*Selector); !ok || sel.adaptive || sel.reg != r {
		t.Errorf("auto resolved to %T, want a static *Selector over this registry", auto)
	}
	ad1, err := r.Store("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	sel1, ok := ad1.(*Selector)
	if !ok || !sel1.adaptive {
		t.Fatalf("adaptive resolved to %T, want an adaptive *Selector", ad1)
	}
	ad2, err := r.Store("Adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if sel1 == ad2.(*Selector) {
		t.Error("adaptive must resolve to a fresh selector per call (independent cost models)")
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	_, r := newTestRegistry(t)
	if _, err := r.Store("carrier-pigeon"); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Errorf("err = %v", err)
	}
	if _, err := r.Key("carrier-pigeon"); err == nil {
		t.Error("unknown key name accepted")
	}
}

func TestRegistryApplicabilityPredicates(t *testing.T) {
	f, r := newTestRegistry(t)

	full := f.ictx(t, "get", &item{Name: "b"})
	reqOnly := f.reqCtx("get")
	reqOnly.Result = &item{Name: "b"}
	immutable := f.ictx(t, "spell", "hello")
	cloneable := f.ictx(t, "get", &cloneableItem{Name: "c"})
	opaque := f.ictx(t, "get", &item{Name: "x"})
	opaque.Result = &opaqueResult{Name: "o"}

	check := func(name string, ictx *client.Context, want bool) {
		t.Helper()
		spec, err := r.ValueSpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Applicable(ictx); got != want {
			t.Errorf("%s applicable = %v, want %v", name, got, want)
		}
	}

	check("xml", full, true)
	check("xml", reqOnly, false) // nothing captured
	check("sax", full, true)
	check("sax", reqOnly, false)
	check("dom", full, true)
	check("reflect", full, true)
	check("reflect", opaque, false)
	check("gob", full, true)
	check("gob", opaque, false)
	check("clone", cloneable, true)
	check("clone", full, false)
	check("ref", immutable, true)
	check("ref", full, false)
}

func TestRegistryRegisterTypeDelegates(t *testing.T) {
	f, r := newTestRegistry(t)
	type extra struct{ V int }
	q := typemap.QName{Space: testNS, Local: "Extra"}
	if err := r.RegisterType(q, extra{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.reg.TypeFor(q); !ok {
		t.Error("RegisterType did not reach the underlying typemap registry")
	}
	if r.Types() != f.reg {
		t.Error("Types() must expose the underlying registry")
	}
}

func TestRegistryNamesAndOrder(t *testing.T) {
	_, r := newTestRegistry(t)
	values := r.Values()
	if len(values) != 11 {
		t.Fatalf("builtin value specs = %d, want 11", len(values))
	}
	// Registration order follows Table 3: message-level representations
	// first, pass-by-reference, then the streaming additions (§5i).
	if values[0].Name != "xml" || values[len(values)-1].Name != "xmltmpl" {
		t.Errorf("order = %s ... %s", values[0].Name, values[len(values)-1].Name)
	}
	for _, spec := range values {
		if spec.Stage == "" || spec.Info.Representation == "" || spec.Applicable == nil {
			t.Errorf("spec %s incompletely registered: %+v", spec.Name, spec)
		}
	}
	if len(r.Keys()) != 4 {
		t.Errorf("builtin key specs = %d, want 4", len(r.Keys()))
	}
	names := r.ValueNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("ValueNames not sorted: %v", names)
		}
	}
}
