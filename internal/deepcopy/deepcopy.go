// Package deepcopy implements deep copying of application objects by
// reflection — the paper's "Copy by using the reflection API" method
// (Section 4.2.3-B). The cache uses it both when storing a response
// (so later mutations by the application cannot corrupt the cached
// value) and when returning a hit (so the application receives its own
// copy, preserving call-by-copy semantics, Section 3.1).
package deepcopy

import (
	"fmt"
	"reflect"
)

// unsupportedTypeError reports a type the reflection copier cannot
// handle: channels, functions, unsafe pointers, or structs with
// unexported fields (the analog of a non-bean Java type).
type unsupportedTypeError struct {
	Type reflect.Type
	Path string
}

// Error implements the error interface.
func (e *unsupportedTypeError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("deepcopy: unsupported type %s", e.Type)
	}
	return fmt.Sprintf("deepcopy: unsupported type %s at %s", e.Type, e.Path)
}

// Value returns a deep copy of v. Scalars and strings are returned
// as-is (they are immutable); pointers, slices, arrays, maps and
// structs are copied recursively. Shared substructure and cycles are
// preserved: if the input graph references the same pointer twice, so
// does the copy.
func Value(v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	rv := reflect.ValueOf(v)
	out, err := copyValue(rv, "value", make(map[copyKey]reflect.Value))
	if err != nil {
		return nil, err
	}
	return out.Interface(), nil
}

// copyKey identifies an already-copied referent: pointer identity alone
// is not enough because a pointer to a struct and a pointer to its
// first field share an address.
type copyKey struct {
	ptr uintptr
	typ reflect.Type
}

// copyValue recursively copies rv. path tracks the location for error
// messages. seen maps visited pointers to their copies so shared
// structure and cycles round-trip.
func copyValue(rv reflect.Value, path string, seen map[copyKey]reflect.Value) (reflect.Value, error) {
	switch rv.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		return rv, nil

	case reflect.Pointer:
		if rv.IsNil() {
			return rv, nil
		}
		key := copyKey{ptr: rv.Pointer(), typ: rv.Type()}
		if prev, ok := seen[key]; ok {
			return prev, nil
		}
		out := reflect.New(rv.Type().Elem())
		seen[key] = out
		elem, err := copyValue(rv.Elem(), path+".*", seen)
		if err != nil {
			return reflect.Value{}, err
		}
		out.Elem().Set(elem)
		return out, nil

	case reflect.Slice:
		if rv.IsNil() {
			return rv, nil
		}
		out := reflect.MakeSlice(rv.Type(), rv.Len(), rv.Len())
		// Fast path: element type has no references, bulk copy.
		if isShallowSafe(rv.Type().Elem()) {
			reflect.Copy(out, rv)
			return out, nil
		}
		for i := 0; i < rv.Len(); i++ {
			ev, err := copyValue(rv.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(ev)
		}
		return out, nil

	case reflect.Array:
		out := reflect.New(rv.Type()).Elem()
		if isShallowSafe(rv.Type().Elem()) {
			reflect.Copy(out, rv)
			return out, nil
		}
		for i := 0; i < rv.Len(); i++ {
			ev, err := copyValue(rv.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(ev)
		}
		return out, nil

	case reflect.Map:
		if rv.IsNil() {
			return rv, nil
		}
		out := reflect.MakeMapWithSize(rv.Type(), rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			kv, err := copyValue(iter.Key(), path+".key", seen)
			if err != nil {
				return reflect.Value{}, err
			}
			vv, err := copyValue(iter.Value(), path+"["+fmt.Sprint(iter.Key().Interface())+"]", seen)
			if err != nil {
				return reflect.Value{}, err
			}
			out.SetMapIndex(kv, vv)
		}
		return out, nil

	case reflect.Struct:
		t := rv.Type()
		out := reflect.New(t).Elem()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				// An unexported field that is non-zero would be silently
				// lost; refuse, mirroring the Java bean limitation.
				if !rv.Field(i).IsZero() {
					return reflect.Value{}, &unsupportedTypeError{Type: t, Path: path + "." + f.Name}
				}
				continue
			}
			fv, err := copyValue(rv.Field(i), path+"."+f.Name, seen)
			if err != nil {
				return reflect.Value{}, err
			}
			out.Field(i).Set(fv)
		}
		return out, nil

	case reflect.Interface:
		if rv.IsNil() {
			return rv, nil
		}
		inner, err := copyValue(rv.Elem(), path+".iface", seen)
		if err != nil {
			return reflect.Value{}, err
		}
		out := reflect.New(rv.Type()).Elem()
		out.Set(inner)
		return out, nil

	default:
		return reflect.Value{}, &unsupportedTypeError{Type: rv.Type(), Path: path}
	}
}

// isShallowSafe reports whether values of t contain no references, so a
// bulk memory copy is already a deep copy.
func isShallowSafe(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.String:
		// Strings reference bytes, but those bytes are immutable.
		return true
	case reflect.Array:
		return isShallowSafe(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isShallowSafe(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
