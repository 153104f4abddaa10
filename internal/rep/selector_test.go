package rep

import (
	"errors"
	"testing"

	"repro/internal/client"
)

// TestSelectorPerTypeDecisions: one selector, two result types filled
// in turn — each class goes to its own Section 6 entry (a bean to
// reflection copy, a cloneable to clone) on every fill, and no other
// candidate is asked.
func TestSelectorPerTypeDecisions(t *testing.T) {
	f := newFixture(t)
	var stores [5]*fakeChainStore
	var scripted [5]ValueStore
	for i, name := range sectionSix[1:] {
		stores[i] = &fakeChainStore{name: name}
		scripted[i] = stores[i]
	}
	sel := scriptedAuto(t, f, scripted)
	bean := f.ictx(t, "get", &item{Name: "bean"})
	cloneable := f.ictx(t, "get", &cloneableItem{Name: "c"})
	const fills = 12
	for i := 0; i < fills; i++ {
		for _, ictx := range []*client.Context{bean, cloneable} {
			if _, _, err := sel.Store(ictx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range stores {
		want := 0
		if s.name == "reflect" || s.name == "clone" {
			want = fills
		}
		if s.calls != want {
			t.Errorf("%s stored %d times, want %d", s.name, s.calls, want)
		}
	}
}

// TestSelectorMatchesStaticOnUniformWorkload: over a uniform immutable
// workload every fill is stored by the classified representation (pass
// by reference) and loads back the result.
func TestSelectorMatchesStaticOnUniformWorkload(t *testing.T) {
	f := newFixture(t)
	sel := NewStaticSelector(NewRegistry(f.reg, f.codec))
	ictx := f.ictx(t, "spell", "suggestion")
	if got := sel.Classify(ictx); got != "Pass by reference" {
		t.Fatalf("classified %q, want Pass by reference", got)
	}
	for i := 0; i < 24; i++ {
		payload, _, err := sel.Store(ictx)
		if err != nil {
			t.Fatal(err)
		}
		if got := storedBy(t, payload); got != "Pass by reference" {
			t.Fatalf("fill %d stored by %q, want Pass by reference", i, got)
		}
		got, err := sel.Load(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != "suggestion" {
			t.Fatalf("load = %#v", got)
		}
	}
}

func TestSelectorBadPayload(t *testing.T) {
	f := newFixture(t)
	sel := NewStaticSelector(NewRegistry(f.reg, f.codec))
	if _, err := sel.Load(42); err == nil {
		t.Error("selector accepted a foreign payload")
	}
}

func TestSelectorNoApplicableCandidate(t *testing.T) {
	// Nothing captured, opaque result: the walk's ErrNotApplicable is
	// surfaced.
	f := newFixture(t)
	sel := NewStaticSelector(NewRegistry(f.reg, f.codec))
	ictx := f.reqCtx("get")
	ictx.Result = &opaqueResult{Name: "o"}
	if _, _, err := sel.Store(ictx); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("err = %v, want ErrNotApplicable", err)
	}
}

// TestSelectorColdFillAllocatesOneWrapper: what a fill allocates beyond
// the representation's own Store is exactly one selPayload.
func TestSelectorColdFillAllocatesOneWrapper(t *testing.T) {
	f := newFixture(t)
	r := NewRegistry(f.reg, f.codec)
	ictx := f.ictx(t, "spell", "immutable")
	ref, err := r.Store("ref")
	if err != nil {
		t.Fatal(err)
	}
	sel := NewStaticSelector(r)
	bare := testing.AllocsPerRun(100, func() { _, _, _ = ref.Store(ictx) })
	fill := testing.AllocsPerRun(100, func() {
		payload, _, err := sel.Store(ictx)
		if err != nil || storedBy(t, payload) != "Pass by reference" {
			t.Fatalf("fill: %v, %v", payload, err)
		}
	})
	if fill != bare+1 {
		t.Errorf("fill = %v allocs; want %v (store) + 1 wrapper", fill, bare)
	}
}
