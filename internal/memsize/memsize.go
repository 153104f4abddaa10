// Package memsize estimates the deep in-memory footprint of Go values.
// The paper's Tables 8 and 9 compare the memory consumed by each cache
// key and cache value representation; this package provides the
// measuring stick. Shared referents are counted once, as they are in
// the heap.
package memsize

import "reflect"

// Of returns the estimated deep size of v in bytes: the value itself
// plus everything it references. Strings' backing bytes are counted;
// pointers shared within the graph are counted once.
func Of(v any) int {
	if v == nil {
		return 0
	}
	seen := make(map[seenKey]bool)
	return sizeOf(reflect.ValueOf(v), seen, true)
}

// seenKey identifies a visited referent by address and type (a struct
// and its first field share an address but are distinct referents).
type seenKey struct {
	ptr uintptr
	typ reflect.Type
}

// sizeOf computes the size of rv. top marks the outermost call, where
// the value's own storage must be counted; for struct fields and array
// elements the containing object's size already includes them.
func sizeOf(rv reflect.Value, seen map[seenKey]bool, top bool) int {
	size := 0
	if top {
		size += int(rv.Type().Size())
	}
	switch rv.Kind() {
	case reflect.String:
		size += rv.Len()

	case reflect.Pointer:
		if rv.IsNil() {
			return size
		}
		key := seenKey{ptr: rv.Pointer(), typ: rv.Type()}
		if seen[key] {
			return size
		}
		seen[key] = true
		size += sizeOf(rv.Elem(), seen, true)

	case reflect.Slice:
		if rv.IsNil() {
			return size
		}
		key := seenKey{ptr: rv.Pointer(), typ: rv.Type()}
		if seen[key] {
			return size
		}
		seen[key] = true
		elem := rv.Type().Elem()
		// Backing array storage for the full capacity is owned by the
		// slice; count len for simplicity and stability.
		size += rv.Len() * int(elem.Size())
		if hasPointers(elem) {
			for i := 0; i < rv.Len(); i++ {
				size += sizeOf(rv.Index(i), seen, false)
			}
		}

	case reflect.Array:
		if hasPointers(rv.Type().Elem()) {
			for i := 0; i < rv.Len(); i++ {
				size += sizeOf(rv.Index(i), seen, false)
			}
		}

	case reflect.Map:
		if rv.IsNil() {
			return size
		}
		key := seenKey{ptr: rv.Pointer(), typ: rv.Type()}
		if seen[key] {
			return size
		}
		seen[key] = true
		kt, vt := rv.Type().Key(), rv.Type().Elem()
		size += rv.Len() * int(kt.Size()+vt.Size())
		iter := rv.MapRange()
		for iter.Next() {
			if hasPointers(kt) {
				size += sizeOf(iter.Key(), seen, false)
			}
			if hasPointers(vt) {
				size += sizeOf(iter.Value(), seen, false)
			}
		}

	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			if hasPointers(f.Type()) {
				size += sizeOf(f, seen, false)
			}
		}

	case reflect.Interface:
		if rv.IsNil() {
			return size
		}
		size += sizeOf(rv.Elem(), seen, true)
	}
	return size
}

// hasPointers reports whether values of t can reference further heap
// storage, so leaf-only subtrees are skipped wholesale.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
