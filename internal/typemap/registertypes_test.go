package typemap_test

import (
	"reflect"
	"testing"

	"repro/internal/googleapi"
	"repro/internal/googlegen"
	"repro/internal/typemap"
)

// TestRegisterTypesIsClosed: the rpc/encoded encoder refuses a struct
// bound to no XML name, and only on the first response that reaches it.
// So every struct type reachable through fields, pointers, slices,
// arrays and maps from a type a service's RegisterTypes registers is
// registered by it too.
func TestRegisterTypesIsClosed(t *testing.T) {
	for _, svc := range []struct {
		name     string
		register func(*typemap.Registry) error
	}{
		{"googleapi", googleapi.RegisterTypes},
		{"googlegen", googlegen.RegisterTypes},
	} {
		reg := typemap.NewRegistry()
		if err := svc.register(reg); err != nil {
			t.Fatalf("%s: %v", svc.name, err)
		}
		roots := reg.Types()
		if len(roots) == 0 {
			t.Fatalf("%s registers no types", svc.name)
		}
		seen := map[reflect.Type]bool{}
		var walk func(typ reflect.Type, path string)
		walk = func(typ reflect.Type, path string) {
			switch typ.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array:
				walk(typ.Elem(), path)
			case reflect.Map:
				walk(typ.Key(), path)
				walk(typ.Elem(), path)
			case reflect.Struct:
				if seen[typ] {
					return
				}
				seen[typ] = true
				if _, ok := reg.NameForType(typ); !ok {
					t.Errorf("%s: %s reaches struct %s, which RegisterTypes does not register", svc.name, path, typ)
				}
				for i := 0; i < typ.NumField(); i++ {
					walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
				}
			}
		}
		for _, root := range roots {
			walk(root, root.String())
		}
	}
}
