// Package typemap is the registry that maps XML qualified names to Go
// types and back, and analyzes Go types for the properties the cache's
// representation selector needs (paper Section 6):
//
//   - deep immutability  → pass-by-reference is safe
//   - cloneability       → copy by the type's own deep-clone method
//   - bean-ness          → copy by reflection or serialization is
//     possible (Go's serializers, like reflection copy, need every
//     reachable field exported, so the paper's "serializable" class is
//     this one)
//
// In Apache Axis this metadata comes from the WSDL compiler's generated
// classes plus Java's runtime marker interfaces (Serializable,
// Cloneable); here the registry performs the equivalent analysis with
// the reflect package and caches the result per type.
package typemap

import (
	"fmt"
	"reflect"
	"sync"
)

// QName is an XML qualified name: a namespace URI plus a local part.
type QName struct {
	Space string
	Local string
}

// String renders the name in Clark notation ({space}local).
func (q QName) String() string {
	if q.Space == "" {
		return q.Local
	}
	return "{" + q.Space + "}" + q.Local
}

// Cloner is implemented by application types that provide their own
// deep copy. It is the analog of the paper's generated clone methods:
// "it should be easy for the WSDL compiler to add a proper deep clone
// method to generated classes" (Section 4.2.3-C).
type Cloner interface {
	// CloneDeep returns a deep copy of the receiver. The returned
	// value must share no mutable state with the receiver.
	CloneDeep() any
}

// class partitions Go types into the shapes the SOAP codec and the
// cache classifier care about.
type class int

// Type classes.
const (
	classPrimitive class = iota + 1 // bool, integers, floats, string
	classBytes                      // []byte (SOAP base64Binary)
	classStruct                     // struct or pointer to struct
	classSlice                      // slice or array of non-byte element
	classMap                        // map
	classInterface                  // interface
	classOpaque                     // chan, func, unsafe: not codable
)

// String returns the class name.
func (c class) String() string {
	switch c {
	case classPrimitive:
		return "primitive"
	case classBytes:
		return "bytes"
	case classStruct:
		return "struct"
	case classSlice:
		return "slice"
	case classMap:
		return "map"
	case classInterface:
		return "interface"
	case classOpaque:
		return "opaque"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// FieldInfo describes one serializable field of a bean-type struct.
type FieldInfo struct {
	// GoName is the exported Go field name.
	GoName string
	// XMLName is the element name used on the wire: the value of the
	// field's `xml` tag when present, otherwise the Go name with its
	// first letter lowered (matching Axis's bean-property naming).
	XMLName string
	// Index is the field's index within the struct.
	Index int
	// Type is the field's Go type.
	Type reflect.Type
}

// TypeInfo is the cached analysis of one Go type.
type TypeInfo struct {
	Type  reflect.Type
	Class class

	// IsBean reports that the type is a data-holder suitable for
	// reflection copy and serialization: a struct (or pointer to
	// struct) whose fields are all exported and themselves
	// bean-compatible, or a slice/array/map of bean-compatible values.
	IsBean bool

	// IsCloneable reports that the type implements Cloner.
	IsCloneable bool

	// IsImmutable reports that a value of this type reachable through
	// an interface cannot be mutated by the holder: scalars, strings,
	// and pointer-free value structs. Immutable values may be shared
	// between cache and application (paper Section 4.2.4).
	IsImmutable bool

	// Fields holds the serializable fields when Class is classStruct.
	Fields []FieldInfo
}

// Registry maps XML names to Go types and caches TypeInfo analyses.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[QName]reflect.Type
	byType map[reflect.Type]QName
	info   map[reflect.Type]*TypeInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[QName]reflect.Type),
		byType: make(map[reflect.Type]QName),
		info:   make(map[reflect.Type]*TypeInfo),
	}
}

// Register binds an XML qualified name to the Go type of prototype.
// Pointer prototypes are registered as their element type: the codec
// always instantiates values and takes addresses as needed.
func (r *Registry) Register(name QName, prototype any) error {
	t := reflect.TypeOf(prototype)
	if t == nil {
		return fmt.Errorf("typemap: cannot register nil prototype for %s", name)
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok && prev != t {
		return fmt.Errorf("typemap: %s already registered as %s", name, prev)
	}
	r.byName[name] = t
	if _, ok := r.byType[t]; !ok {
		r.byType[t] = name
	}
	return nil
}

// TypeFor returns the Go type registered under name.
func (r *Registry) TypeFor(name QName) (reflect.Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[name]
	return t, ok
}

// NameForType returns the XML name registered for t (pointers
// dereferenced).
func (r *Registry) NameForType(t reflect.Type) (QName, bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	q, ok := r.byType[t]
	return q, ok
}

// InfoFor returns the (cached) analysis for the dynamic type of v.
func (r *Registry) InfoFor(v any) *TypeInfo {
	t := reflect.TypeOf(v)
	if t == nil {
		return &TypeInfo{Class: classInterface, IsImmutable: true}
	}
	return r.InfoForType(t)
}

// InfoForType returns the (cached) analysis for t.
func (r *Registry) InfoForType(t reflect.Type) *TypeInfo {
	r.mu.RLock()
	ti, ok := r.info[t]
	r.mu.RUnlock()
	if ok {
		return ti
	}
	ti = analyze(t)
	r.mu.Lock()
	r.info[t] = ti
	r.mu.Unlock()
	return ti
}

// clonerType is the reflect.Type of the Cloner interface.
var clonerType = reflect.TypeOf((*Cloner)(nil)).Elem()

// analyze computes a TypeInfo without consulting the cache.
func analyze(t reflect.Type) *TypeInfo {
	ti := &TypeInfo{Type: t}
	ti.Class = classify(t)
	ti.IsCloneable = t.Implements(clonerType) ||
		(t.Kind() != reflect.Pointer && reflect.PointerTo(t).Implements(clonerType))
	ti.IsImmutable = isImmutable(t, make(map[reflect.Type]bool))
	ti.IsBean = isBean(t, make(map[reflect.Type]bool))
	if st := structType(t); st != nil {
		ti.Fields = structFields(st)
	}
	return ti
}

// classify maps a Go type to its Class.
func classify(t reflect.Type) class {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return classPrimitive
	case reflect.Slice, reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			return classBytes
		}
		return classSlice
	case reflect.Struct:
		return classStruct
	case reflect.Pointer:
		return classify(t.Elem())
	case reflect.Map:
		return classMap
	case reflect.Interface:
		return classInterface
	default:
		return classOpaque
	}
}

// structType returns the struct type underlying t (through one level of
// pointer), or nil.
func structType(t reflect.Type) reflect.Type {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() == reflect.Struct {
		return t
	}
	return nil
}

// structFields extracts the serializable fields of a struct type.
// Unexported fields and fields tagged `xml:"-"` are skipped.
func structFields(t reflect.Type) []FieldInfo {
	fields := make([]FieldInfo, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		xmlName := f.Tag.Get("xml")
		if xmlName == "-" {
			continue
		}
		if xmlName == "" {
			xmlName = lowerFirst(f.Name)
		}
		fields = append(fields, FieldInfo{
			GoName:  f.Name,
			XMLName: xmlName,
			Index:   i,
			Type:    f.Type,
		})
	}
	return fields
}

// lowerFirst lowers the first byte of an ASCII identifier; the wire
// names of generated bean properties are lowerCamelCase.
func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	c := s[0]
	if c < 'A' || c > 'Z' {
		return s
	}
	return string(c+('a'-'A')) + s[1:]
}

// isImmutable reports deep immutability: no mutation is possible
// through a value of this type held in an interface.
func isImmutable(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		// A recursive type necessarily involves a pointer, which would
		// already have returned false; being here means a value cycle,
		// which Go forbids, so this is unreachable — answer
		// conservatively anyway.
		return false
	}
	seen[t] = true
	defer delete(seen, t)
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return true
	case reflect.Array:
		return isImmutable(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isImmutable(t.Field(i).Type, seen) {
				return false
			}
		}
		return true
	default:
		// Pointers, slices, maps, chans, funcs, interfaces: mutable or
		// unknowable.
		return false
	}
}

// isBean reports whether reflection copy can faithfully deep-copy a
// value of this type, and a serializer round-trip it: all reachable
// struct fields must be exported (gob and binser skip or refuse
// unexported ones; a lossy copy is worse than a refused one).
func isBean(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true // already being checked higher in the walk
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return isBean(t.Elem(), seen)
	case reflect.Map:
		return isBean(t.Key(), seen) && isBean(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return false
			}
			if !isBean(f.Type, seen) {
				return false
			}
		}
		return true
	default:
		// Interfaces hide their dynamic type; chans and funcs cannot be
		// copied meaningfully.
		return false
	}
}
