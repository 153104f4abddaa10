package rep

import (
	"strings"
	"testing"

	"repro/internal/client"
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
}

func TestRegistryResolvesSelectionPolicies(t *testing.T) {
	_, r := newTestRegistry(t)
	auto, err := r.Store("auto")
	if err != nil {
		t.Fatal(err)
	}
	if sel, ok := auto.(*Selector); !ok || sel.reg != r {
		t.Errorf("auto resolved to %T, want a *Selector over this registry", auto)
	}
	if _, err := r.Store("AUTO"); err != nil {
		t.Errorf("Store(AUTO): %v; the policy name is case-insensitive", err)
	}
	// "auto" is the only policy; any other name must be a representation,
	// and the error lists every name Store accepts.
	_, err = r.Store("adaptive")
	if err == nil {
		t.Fatal(`Store("adaptive") resolved; there is no adaptive policy`)
	}
	for _, want := range append(r.valueNamesLocked(), "auto") {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	_, r := newTestRegistry(t)
	if _, err := r.Store("carrier-pigeon"); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Errorf("err = %v", err)
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
		if spec.Info.Representation == "" || spec.Applicable == nil {
			t.Errorf("spec %s incompletely registered: %+v", spec.Name, spec)
		}
	}
	var keys []string
	for _, spec := range r.Keys() {
		keys = append(keys, spec.Name)
	}
	if got := strings.Join(keys, " "); got != "xml binser gob string" {
		t.Errorf("builtin key specs = %s, want Table 2 order xml binser gob string", got)
	}
	names := r.valueNamesLocked()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("ValueNames not sorted: %v", names)
		}
	}
}
