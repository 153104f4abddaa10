// Package binser is a compact reflection-driven binary serializer for
// application-object graphs: the repository's working analog of Java
// serialization (paper Sections 4.1.2-A and 4.2.3-A).
//
// Why not encoding/gob: gob's per-message overhead (encoder setup,
// message framing, interface type names) dominates at the kilobyte
// message sizes of this workload, making it slower than XML processing
// and inverting the paper's ordering. Java serialization has no such
// floor, and neither does this encoder; gob remains in the tree for the
// ablation benchmarks that document the difference.
//
// The format is self-describing: every value carries a kind tag, and
// struct values carry the qualified XML name under which their Go type
// is registered in the typemap registry — the analog of a Java class
// implementing Serializable with a well-known name. Unregistered struct
// types and structs with unexported fields are rejected, mirroring the
// NotSerializableException limitation of the Java mechanism.
package binser

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/typemap"
)

// Kind tags of the wire format.
const (
	tagNil byte = iota + 1
	tagTrue
	tagFalse
	tagInt    // zigzag varint
	tagUint   // varint
	tagFloat  // 8-byte IEEE 754 big endian
	tagString // varint length + bytes
	tagBytes  // varint length + raw bytes
	tagSlice  // element count + elements
	tagStruct // type name + field count + (name index omitted: field order)
	tagMap    // pair count + key/value pairs
)

// maxDepth bounds recursion: the serializer supports trees and DAGs by
// duplication but not cycles.
const maxDepth = 1000

// Codec serializes values against a type registry.
type Codec struct {
	reg *typemap.Registry

	// byType and byName cache what the registry says of each struct
	// type written and each wire name read. Both maps are immutable
	// once published and replaced copy on write when a lookup misses,
	// so a hit takes no lock. They hold registered types only, and a
	// registration is never rebound, so an entry never goes stale.
	byType atomic.Pointer[map[reflect.Type]*structType]
	byName atomic.Pointer[map[string]*structType]
	mu     sync.Mutex // serializes cache writes
}

// structType is a registered struct type as the wire format sees it.
type structType struct {
	t    reflect.Type
	q    typemap.QName
	name string // the wire name, q in Clark notation, built once
	// fields is the registry's field list; the encoder refuses a type
	// with fields outside it, the decoder fills only these.
	fields []typemap.FieldInfo
}

// NewCodec returns a Codec using reg for struct-type names.
func NewCodec(reg *typemap.Registry) *Codec {
	return &Codec{reg: reg}
}

// maxPooledScratch bounds the buffer Marshal keeps in its pool, so one
// huge value does not pin its buffer for the life of the process.
const maxPooledScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// Marshal serializes v. It encodes into a pooled scratch buffer and
// returns an exact-size copy: one allocation, whatever the value's
// size, and no spare capacity held by a stored value.
func (c *Codec) Marshal(v any) ([]byte, error) {
	sp := scratchPool.Get().(*[]byte)
	buf, err := c.Append((*sp)[:0], v)
	if err != nil {
		scratchPool.Put(sp)
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	if cap(buf) <= maxPooledScratch {
		*sp = buf[:0]
		scratchPool.Put(sp)
	}
	return out, nil
}

// Append serializes v onto buf and returns the extended buffer; key
// generation uses it to serialize several parameters into one buffer.
func (c *Codec) Append(buf []byte, v any) ([]byte, error) {
	if v == nil {
		return append(buf, tagNil), nil
	}
	return c.encode(buf, reflect.ValueOf(v), 0)
}

// Unmarshal deserializes one value from data.
func (c *Codec) Unmarshal(data []byte) (any, error) {
	budget := len(data)
	v, rest, err := c.decode(data, 0, &budget)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("binser: %d trailing bytes", len(rest))
	}
	return v, nil
}

// encode appends rv's serialized form to buf.
func (c *Codec) encode(buf []byte, rv reflect.Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("binser: object graph deeper than %d (cycle?)", maxDepth)
	}
	switch rv.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil

	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, rv.Int()), nil

	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		buf = append(buf, tagUint)
		return binary.AppendUvarint(buf, rv.Uint()), nil

	case reflect.Float32, reflect.Float64:
		buf = append(buf, tagFloat)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(rv.Float())), nil

	case reflect.String:
		buf = append(buf, tagString)
		s := rv.String()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...), nil

	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.IsNil() {
			// Nil-ness survives the round trip (nil ≠ empty).
			return append(buf, tagNil), nil
		}
		if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 {
			buf = append(buf, tagBytes)
			b := rv.Bytes()
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			return append(buf, b...), nil
		}
		buf = append(buf, tagSlice)
		buf = binary.AppendUvarint(buf, uint64(rv.Len()))
		var err error
		for i := 0; i < rv.Len(); i++ {
			buf, err = c.encode(buf, rv.Index(i), depth+1)
			if err != nil {
				return nil, err
			}
		}
		return buf, nil

	case reflect.Map:
		if rv.IsNil() {
			return append(buf, tagNil), nil
		}
		buf = append(buf, tagMap)
		buf = binary.AppendUvarint(buf, uint64(rv.Len()))
		// Keys are sorted so the encoding is deterministic — a cache
		// key derived from a map parameter must be stable across calls.
		keys := rv.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i].Interface()) < fmt.Sprint(keys[j].Interface())
		})
		var err error
		for _, k := range keys {
			buf, err = c.encode(buf, k, depth+1)
			if err != nil {
				return nil, err
			}
			buf, err = c.encode(buf, rv.MapIndex(k), depth+1)
			if err != nil {
				return nil, err
			}
		}
		return buf, nil

	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return append(buf, tagNil), nil
		}
		return c.encode(buf, rv.Elem(), depth+1)

	case reflect.Struct:
		st, err := c.structOf(rv.Type())
		if err != nil {
			return nil, err
		}
		buf = append(buf, tagStruct)
		buf = binary.AppendUvarint(buf, uint64(len(st.name)))
		buf = append(buf, st.name...)
		buf = binary.AppendUvarint(buf, uint64(len(st.fields)))
		for _, f := range st.fields {
			buf, err = c.encode(buf, rv.Field(f.Index), depth+1)
			if err != nil {
				return nil, err
			}
		}
		return buf, nil

	default:
		return nil, &notSerializableError{Type: rv.Type(), Reason: "unsupported kind " + rv.Kind().String()}
	}
}

// decode reads one value, returning it and the remaining bytes.
// Structs decode to pointers of their registered Go type; slices of
// structs to []T; simple values to their natural Go types. budget is
// what the slice and map preallocations of this Unmarshal may still
// reserve (see wireCount).
func (c *Codec) decode(data []byte, depth int, budget *int) (any, []byte, error) {
	if depth > maxDepth {
		return nil, nil, fmt.Errorf("binser: nesting deeper than %d", maxDepth)
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("binser: truncated input")
	}
	tag := data[0]
	data = data[1:]
	switch tag {
	case tagNil:
		return nil, data, nil
	case tagTrue:
		return true, data, nil
	case tagFalse:
		return false, data, nil
	case tagInt:
		n, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("binser: bad varint")
		}
		return int(n), data[sz:], nil
	case tagUint:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, nil, fmt.Errorf("binser: bad uvarint")
		}
		return uint64(n), data[sz:], nil
	case tagFloat:
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("binser: truncated float")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(data)), data[8:], nil
	case tagString:
		s, rest, err := readLenBytes(data)
		if err != nil {
			return nil, nil, err
		}
		return string(s), rest, nil
	case tagBytes:
		b, rest, err := readLenBytes(data)
		if err != nil {
			return nil, nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, rest, nil
	case tagSlice:
		return c.decodeSlice(data, depth, budget)
	case tagMap:
		return c.decodeMap(data, depth, budget)
	case tagStruct:
		return c.decodeStruct(data, depth, budget)
	default:
		return nil, nil, fmt.Errorf("binser: unknown tag %d", tag)
	}
}

// decodeSlice reads a tagSlice body. Homogeneous struct slices decode
// to []T; everything else to []any.
func (c *Codec) decodeSlice(data []byte, depth int, budget *int) (any, []byte, error) {
	n, prealloc, data, err := wireCount(data, 1, budget, "slice length")
	if err != nil {
		return nil, nil, err
	}
	items := make([]any, 0, prealloc)
	for i := 0; i < n; i++ {
		v, rest, err := c.decode(data, depth+1, budget)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, v)
		data = rest
	}
	return c.normalizeSlice(items), data, nil
}

// normalizeSlice converts []any of homogeneous values into a typed
// slice so round-trips preserve []T shapes.
func (c *Codec) normalizeSlice(items []any) any {
	if len(items) == 0 {
		return []any{}
	}
	first := reflect.TypeOf(items[0])
	if first == nil {
		return items
	}
	elem := first
	// Struct items decode as *T; a slice of them normalizes to []T.
	deref := elem.Kind() == reflect.Pointer && elem.Elem().Kind() == reflect.Struct
	if deref {
		elem = elem.Elem()
	}
	for _, it := range items[1:] {
		if reflect.TypeOf(it) != first {
			return items
		}
	}
	out := reflect.MakeSlice(reflect.SliceOf(elem), len(items), len(items))
	for i, it := range items {
		v := reflect.ValueOf(it)
		if deref {
			v = v.Elem()
		}
		out.Index(i).Set(v)
	}
	return out.Interface()
}

// decodeMap reads a tagMap body into a map[string]any (string keys) or
// map[any]any equivalent; heterogeneous keys decode to []any pairs.
func (c *Codec) decodeMap(data []byte, depth int, budget *int) (any, []byte, error) {
	n, prealloc, data, err := wireCount(data, 2, budget, "map length")
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]any, prealloc)
	for i := 0; i < n; i++ {
		k, rest, err := c.decode(data, depth+1, budget)
		if err != nil {
			return nil, nil, err
		}
		v, rest2, err := c.decode(rest, depth+1, budget)
		if err != nil {
			return nil, nil, err
		}
		ks, ok := k.(string)
		if !ok {
			return nil, nil, fmt.Errorf("binser: only string map keys decode (got %T)", k)
		}
		out[ks] = v
		data = rest2
	}
	return out, data, nil
}

// decodeStruct reads a tagStruct body and reconstructs *T for the
// registered type.
func (c *Codec) decodeStruct(data []byte, depth int, budget *int) (any, []byte, error) {
	nameBytes, rest, err := readLenBytes(data)
	if err != nil {
		return nil, nil, err
	}
	data = rest
	st, err := c.structNamed(nameBytes)
	if err != nil {
		return nil, nil, err
	}
	nf, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("binser: bad field count")
	}
	data = data[sz:]
	if int(nf) != len(st.fields) {
		return nil, nil, fmt.Errorf("binser: %s field count %d, expected %d", st.q, nf, len(st.fields))
	}
	ptr := reflect.New(st.t)
	sv := ptr.Elem()
	for _, f := range st.fields {
		if rest, ok := decodeScalarInto(sv.Field(f.Index), data); ok {
			data = rest
			continue
		}
		v, rest, err := c.decode(data, depth+1, budget)
		if err != nil {
			return nil, nil, err
		}
		data = rest
		if err := setField(sv.Field(f.Index), v); err != nil {
			return nil, nil, fmt.Errorf("binser: %s.%s: %w", st.q, f.GoName, err)
		}
	}
	return ptr.Interface(), data, nil
}

// decodeScalarInto decodes a string, boolean, integer or float straight
// into a struct field of the same kind, with no boxed intermediate; it
// reports false, consuming nothing, for anything else (malformed input
// included), which the general path then decodes.
func decodeScalarInto(dst reflect.Value, data []byte) ([]byte, bool) {
	if len(data) == 0 {
		return nil, false
	}
	tag, body := data[0], data[1:]
	switch {
	case tag == tagString && dst.Kind() == reflect.String:
		s, rest, err := readLenBytes(body)
		if err != nil {
			return nil, false
		}
		dst.SetString(string(s))
		return rest, true
	case (tag == tagTrue || tag == tagFalse) && dst.Kind() == reflect.Bool:
		dst.SetBool(tag == tagTrue)
		return body, true
	case tag == tagInt && dst.CanInt():
		n, sz := binary.Varint(body)
		if sz <= 0 {
			return nil, false
		}
		dst.SetInt(n)
		return body[sz:], true
	case tag == tagFloat && dst.CanFloat() && len(body) >= 8:
		dst.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(body)))
		return body[8:], true
	}
	return nil, false
}

// setField assigns a decoded value into a struct field, adapting
// pointers and numeric widths.
func setField(dst reflect.Value, v any) error {
	if v == nil {
		return nil // leave zero
	}
	sv := reflect.ValueOf(v)
	if dst.Kind() == reflect.Pointer {
		p := reflect.New(dst.Type().Elem())
		if err := setField(p.Elem(), v); err != nil {
			return err
		}
		dst.Set(p)
		return nil
	}
	// Struct fields decode as *T but may be declared as T.
	if sv.Kind() == reflect.Pointer && dst.Kind() == reflect.Struct {
		sv = sv.Elem()
	}
	if sv.Type().AssignableTo(dst.Type()) {
		dst.Set(sv)
		return nil
	}
	if sv.Type().ConvertibleTo(dst.Type()) {
		switch dst.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.String:
			dst.Set(sv.Convert(dst.Type()))
			return nil
		case reflect.Slice:
			if sv.Kind() == reflect.Slice {
				dst.Set(sv.Convert(dst.Type()))
				return nil
			}
		}
	}
	// map[string]any → typed map.
	if sv.Kind() == reflect.Map && dst.Kind() == reflect.Map {
		out := reflect.MakeMapWithSize(dst.Type(), sv.Len())
		iter := sv.MapRange()
		for iter.Next() {
			kv := reflect.New(dst.Type().Key()).Elem()
			vv := reflect.New(dst.Type().Elem()).Elem()
			if err := setField(kv, held(iter.Key())); err != nil {
				return err
			}
			if err := setField(vv, held(iter.Value())); err != nil {
				return err
			}
			out.SetMapIndex(kv, vv)
		}
		dst.Set(out)
		return nil
	}
	// []any → typed slice attempt (empty slices and mixed content).
	if sv.Kind() == reflect.Slice && dst.Kind() == reflect.Slice {
		out := reflect.MakeSlice(dst.Type(), sv.Len(), sv.Len())
		for i := 0; i < sv.Len(); i++ {
			if err := setField(out.Index(i), held(sv.Index(i))); err != nil {
				return err
			}
		}
		dst.Set(out)
		return nil
	}
	return fmt.Errorf("cannot assign %T to %s", v, dst.Type())
}

// held returns the value an element of a decoded []any or
// map[string]any holds; nil, which setField leaves as the zero value,
// for a nil element.
func held(v reflect.Value) any {
	if v.Kind() == reflect.Interface && v.IsNil() {
		return nil
	}
	return v.Interface()
}

// wireCount reads the uvarint count of a slice or map whose elements
// take at least size bytes each (a tag byte per value), so a count the
// bytes left cannot hold is refused (sax.DecodeCompactSequence's
// wireLen rule). Nested counts claim the same bytes, so the
// preallocation it returns also draws on budget, which Unmarshal sets
// to the input's length: no input reserves room for more values than
// it has bytes.
func wireCount(data []byte, size int, budget *int, what string) (n, prealloc int, rest []byte, err error) {
	v, sz := binary.Uvarint(data)
	if sz <= 0 {
		return 0, 0, nil, fmt.Errorf("binser: bad %s", what)
	}
	data = data[sz:]
	if v > uint64(len(data)/size) {
		return 0, 0, nil, fmt.Errorf("binser: %s %d exceeds the %d bytes left", what, v, len(data))
	}
	n = int(v)
	prealloc = min(n, *budget/size)
	*budget -= prealloc * size
	return n, prealloc, data, nil
}

// readLenBytes reads a uvarint length prefix and that many bytes.
func readLenBytes(data []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("binser: bad length prefix")
	}
	data = data[sz:]
	if uint64(len(data)) < n {
		return nil, nil, fmt.Errorf("binser: truncated value (want %d bytes, have %d)", n, len(data))
	}
	return data[:n], data[n:], nil
}

// structOf returns how t, a struct type, is written: its wire name and
// fields. It refuses an unregistered type and one with fields the
// registry skips.
func (c *Codec) structOf(t reflect.Type) (*structType, error) {
	if m := c.byType.Load(); m != nil {
		if st, ok := (*m)[t]; ok {
			return st, nil
		}
	}
	q, ok := c.reg.NameForType(t)
	if !ok {
		return nil, &notSerializableError{Type: t, Reason: "type not registered"}
	}
	info := c.reg.InfoForType(t)
	if len(info.Fields) != t.NumField() {
		return nil, &notSerializableError{Type: t, Reason: "has unexported or skipped fields"}
	}
	st := &structType{t: t, q: q, name: q.String(), fields: info.Fields}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byType.Store(with(c.byType.Load(), t, st))
	return st, nil
}

// structNamed resolves a wire name to the registered type it decodes
// to. A name read before is found by its bytes, with no string built
// for it.
func (c *Codec) structNamed(name []byte) (*structType, error) {
	if m := c.byName.Load(); m != nil {
		if st, ok := (*m)[string(name)]; ok {
			return st, nil
		}
	}
	q, err := parseQName(string(name))
	if err != nil {
		return nil, err
	}
	t, ok := c.reg.TypeFor(q)
	if !ok {
		return nil, fmt.Errorf("binser: unknown struct type %s", q)
	}
	st := &structType{t: t, q: q, name: string(name), fields: c.reg.InfoForType(t).Fields}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byName.Store(with(c.byName.Load(), st.name, st))
	return st, nil
}

// with returns a copy of *m, or a new map when m is nil, holding k → v.
func with[K comparable](m *map[K]*structType, k K, v *structType) *map[K]*structType {
	next := map[K]*structType{}
	if m != nil {
		next = maps.Clone(*m)
	}
	next[k] = v
	return &next
}

// parseQName parses Clark notation ({space}local) produced by
// typemap.QName.String.
func parseQName(s string) (typemap.QName, error) {
	if len(s) == 0 {
		return typemap.QName{}, fmt.Errorf("binser: empty type name")
	}
	if s[0] != '{' {
		return typemap.QName{Local: s}, nil
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '}' {
			return typemap.QName{Space: s[1:i], Local: s[i+1:]}, nil
		}
	}
	return typemap.QName{}, fmt.Errorf("binser: malformed type name %q", s)
}

// notSerializableError reports a value the binary serializer cannot
// encode — the analog of java.io.NotSerializableException.
type notSerializableError struct {
	Type   reflect.Type
	Reason string
}

// Error implements the error interface.
func (e *notSerializableError) Error() string {
	return fmt.Sprintf("binser: %s is not serializable: %s", e.Type, e.Reason)
}
