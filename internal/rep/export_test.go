package rep

import (
	"testing"

	"repro/internal/typemap"
)

// TemplateShapes is the bound on the skeletons one TemplateStore
// interns.
const TemplateShapes = templateShapes

// Orders returns the selector's two walk orders, L1 and wire, as
// resolved against its registry.
func (s *Selector) Orders() (l1, wire []*ValueSpec) { return s.l1, s.wire }

// StoredBy returns the representation behind a payload Selector.Store
// produced.
func StoredBy(payload any) ValueStore { return payload.(*selPayload).store }

// FixtureResults returns the fixture's type registry (its types
// registered) and one result of every class the fixture builds: a bean,
// a cloneable pointer, a cloneable type held as a value, an opaque
// struct and nil.
func FixtureResults(t testing.TB) (*typemap.Registry, []any) {
	return newFixture(t).reg, []any{
		&item{Name: "bean", Tags: []string{"t"}},
		&cloneableItem{Name: "c"},
		cloneableBox{Name: "v"},
		&opaqueResult{Name: "o"},
		nil,
	}
}
