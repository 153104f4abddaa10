package rep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/deepcopy"
	"repro/internal/googleapi"
	"repro/internal/rep"
	"repro/internal/sax"
)

// TestEveryRepresentationIsCallByCopy runs the paper's §3.1 contract
// over every registered representation and the selector ("auto"): a
// cached object is deep-copied into and out of the cache unless it is
// read-only. For every census result class, with and without
// AcceptStream, it stores a fresh invocation (the result, its response
// XML and its recorded events), loads it (v0) and snapshots v0. Then it
// overwrites everything reachable and settable from the invocation's
// Result, ResponseXML and ResponseEvents and from v0, and requires a
// second Load to equal the snapshot. A twin invocation of an equal
// result is stored and overwritten before its first Load, which must
// equal the snapshot too. So what the cache holds shares nothing a
// caller can write, on either side of the store.
//
// The exemptions are by type, never by representation name. A
// Streamed hit is read-only by its contract, so v0 is left alone when
// it is one (its snapshot is its replayed bytes): Streamed.Bytes may be
// the cached payload itself, and so are the bytes
// server.ResponseCache.Handle returns on a raw hit; a caller that wrote
// into them would change every later hit. An immutable value, the only
// kind ref holds, has nothing settable to overwrite.
func TestEveryRepresentationIsCallByCopy(t *testing.T) {
	codec, reg, _, _ := census(t)
	type named struct {
		name  string
		store rep.ValueStore
	}
	var stores []named
	for _, spec := range reg.Values() {
		stores = append(stores, named{spec.Name, spec.Store})
	}
	auto, err := reg.Store("auto")
	if err != nil {
		t.Fatal(err)
	}
	stores = append(stores, named{"auto", auto})

	invocation := func(result any, stream bool) *client.Context {
		doc := censusDoc(t, codec, result)
		events, err := sax.Record(doc)
		if err != nil {
			t.Fatal(err)
		}
		return &client.Context{
			Ctx:            context.Background(),
			Namespace:      googleapi.Namespace,
			Operation:      "census",
			AcceptStream:   stream,
			ResponseXML:    doc,
			ResponseEvents: events,
			Result:         result,
		}
	}
	pairs := 0
	for _, s := range stores {
		checked := 0
		for _, stream := range []bool{false, true} {
			// Fresh results: each pair overwrites its own.
			_, _, _, results := census(t)
			_, _, _, twins := census(t)
			for i, result := range results {
				row := fmt.Sprintf("%s %T stream=%t", s.name, result, stream)
				ictx, twin := invocation(result, stream), invocation(twins[i], stream)
				payload, _, err := s.store.Store(ictx)
				if errors.Is(err, rep.ErrNotApplicable) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: Store: %v", row, err)
				}
				twinPayload, _, err := s.store.Store(twin)
				if err != nil {
					t.Fatalf("%s: Store of the twin: %v", row, err)
				}
				v0, err := s.store.Load(payload)
				if err != nil {
					t.Fatalf("%s: Load: %v", row, err)
				}
				want := snapshot(t, v0)
				loadEquals := func(payload any, when string) {
					t.Helper()
					v, err := s.store.Load(payload)
					if err != nil {
						t.Errorf("%s: Load %s: %v", row, when, err)
					} else if got := snapshot(t, v); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Load %s:\n got %#v\nwant %#v", row, when, got, want)
					}
				}

				seen := map[scribbled]bool{}
				overwrite := func(ictx *client.Context) {
					for _, v := range []any{ictx.Result, ictx.ResponseXML, ictx.ResponseEvents} {
						scribble(reflect.ValueOf(v), seen)
					}
				}
				overwrite(twin)
				loadEquals(twinPayload, "after writes to its invocation")
				overwrite(ictx)
				if _, ok := v0.(rep.Streamed); !ok {
					scribble(reflect.ValueOf(v0), seen)
				}
				loadEquals(payload, "after writes to its invocation and the first Load's result")
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s stored no census result", s.name)
		}
		pairs += checked
	}
	t.Logf("%d store/load pairs over %d representations", pairs, len(stores))
}

// snapshot is what a hit must keep returning: a Streamed's replayed
// bytes, any other result's deep copy.
func snapshot(t *testing.T, v any) any {
	t.Helper()
	if st, ok := v.(rep.Streamed); ok {
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cp, err := deepcopy.Value(v)
	if err != nil {
		t.Fatalf("snapshot of %T: %v", v, err)
	}
	return cp
}

// scribbled identifies a location scribble already wrote: an address
// alone is not enough, a struct and its first field share one.
type scribbled struct {
	addr uintptr
	typ  reflect.Type
}

// scribble overwrites every settable scalar reachable from v through
// exported fields, pointers, interfaces, slices, arrays and maps with a
// different value, each location once.
func scribble(v reflect.Value, seen map[scribbled]bool) {
	if v.CanAddr() {
		at := scribbled{v.UnsafeAddr(), v.Type()}
		if seen[at] {
			return
		}
		seen[at] = true
	}
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem(), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				scribble(v.Field(i), seen)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			cp := reflect.New(v.Type().Elem()).Elem()
			cp.Set(it.Value())
			scribble(cp, seen)
			v.SetMapIndex(it.Key(), cp)
		}
	case reflect.String:
		if v.CanSet() {
			v.SetString(v.String() + "Z")
		}
	case reflect.Bool:
		if v.CanSet() {
			v.SetBool(!v.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.CanSet() {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.CanSet() {
			v.SetUint(v.Uint() + 1)
		}
	case reflect.Float32, reflect.Float64:
		if v.CanSet() {
			v.SetFloat(v.Float() + 1)
		}
	}
}
