package deepcopy

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

type node struct {
	Value    int
	Label    string
	Children []*node
	Attrs    map[string]string
	Next     *node
}

type result struct {
	Query   string
	Count   int
	Hits    []hit
	Blob    []byte
	Flags   [3]bool
	Nested  *result
	Anynull any
}

type hit struct {
	URL   string
	Score float64
}

func TestScalarsPassThrough(t *testing.T) {
	for _, v := range []any{42, "s", 3.14, true, int64(-1), uint8(255)} {
		got, err := Value(v)
		if err != nil {
			t.Fatalf("Value(%v): %v", v, err)
		}
		if got != v {
			t.Errorf("got %v, want %v", got, v)
		}
	}
}

func TestNil(t *testing.T) {
	got, err := Value(nil)
	if err != nil || got != nil {
		t.Errorf("Value(nil) = %v, %v", got, err)
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	orig := &result{
		Query: "golang",
		Count: 2,
		Hits:  []hit{{URL: "a", Score: 1}, {URL: "b", Score: 2}},
		Blob:  []byte{1, 2, 3},
		Flags: [3]bool{true, false, true},
		Nested: &result{
			Query: "inner",
			Hits:  []hit{{URL: "c"}},
		},
	}
	cp, err := Value(orig)
	if err != nil {
		t.Fatal(err)
	}
	copied, ok := cp.(*result)
	if !ok {
		t.Fatalf("copy has type %T", cp)
	}
	if !reflect.DeepEqual(orig, copied) {
		t.Fatalf("copy differs: %+v vs %+v", orig, copied)
	}
	if orig == copied {
		t.Fatal("copy aliases original pointer")
	}

	// Mutate every mutable reach of the copy; the original must not move.
	copied.Query = "changed"
	copied.Hits[0].URL = "changed"
	copied.Blob[0] = 99
	copied.Nested.Query = "changed"
	copied.Nested.Hits[0].URL = "changed"
	if orig.Query != "golang" || orig.Hits[0].URL != "a" || orig.Blob[0] != 1 ||
		orig.Nested.Query != "inner" || orig.Nested.Hits[0].URL != "c" {
		t.Errorf("original mutated through copy: %+v", orig)
	}
}

func TestMapCopy(t *testing.T) {
	orig := map[string][]int{"a": {1, 2}, "b": {3}}
	cp, err := Value(orig)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.(map[string][]int)
	copied["a"][0] = 99
	copied["c"] = []int{4}
	if orig["a"][0] != 1 {
		t.Error("map value slice aliased")
	}
	if _, ok := orig["c"]; ok {
		t.Error("map itself aliased")
	}
}

func TestSharedSubstructurePreserved(t *testing.T) {
	shared := &node{Value: 7}
	orig := &node{Children: []*node{shared, shared}}
	cp, err := Value(orig)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.(*node)
	if copied.Children[0] != copied.Children[1] {
		t.Error("shared pointer duplicated instead of preserved")
	}
	if copied.Children[0] == shared {
		t.Error("shared pointer aliases original")
	}
}

func TestCyclePreserved(t *testing.T) {
	a := &node{Value: 1}
	b := &node{Value: 2, Next: a}
	a.Next = b
	cp, err := Value(a)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.(*node)
	if copied.Next.Next != copied {
		t.Error("cycle not preserved")
	}
	if copied.Next == b {
		t.Error("cycle aliases original")
	}
}

func TestSelfCycle(t *testing.T) {
	a := &node{Value: 1}
	a.Next = a
	cp, err := Value(a)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.(*node)
	if copied.Next != copied {
		t.Error("self-cycle not preserved")
	}
}

func TestNilFieldsPreserved(t *testing.T) {
	orig := &node{Value: 1} // Children, Attrs, Next all nil
	cp, err := Value(orig)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.(*node)
	if copied.Children != nil || copied.Attrs != nil || copied.Next != nil {
		t.Errorf("nil fields materialized: %+v", copied)
	}
}

func TestInterfaceField(t *testing.T) {
	orig := &result{Anynull: &hit{URL: "x"}}
	cp, err := Value(orig)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.(*result)
	h, ok := copied.Anynull.(*hit)
	if !ok {
		t.Fatalf("interface field has type %T", copied.Anynull)
	}
	if h == orig.Anynull.(*hit) {
		t.Error("interface payload aliased")
	}
	if h.URL != "x" {
		t.Errorf("URL = %q", h.URL)
	}
}

func TestUnsupportedFunc(t *testing.T) {
	type bad struct{ F func() }
	_, err := Value(&bad{F: func() {}})
	var ute *unsupportedTypeError
	if !errors.As(err, &ute) {
		t.Fatalf("err = %v, want UnsupportedTypeError", err)
	}
}

func TestUnsupportedChan(t *testing.T) {
	type bad struct{ C chan int }
	if _, err := Value(&bad{C: make(chan int)}); err == nil {
		t.Error("expected error for chan field")
	}
}

func TestUnexportedNonZeroRejected(t *testing.T) {
	type sneaky struct {
		Public string
		secret int
	}
	if _, err := Value(&sneaky{Public: "x", secret: 1}); err == nil {
		t.Error("expected error: non-zero unexported field would be lost")
	}
	// Zero unexported field is tolerated: nothing is lost.
	if _, err := Value(&sneaky{Public: "x"}); err != nil {
		t.Errorf("zero unexported field should copy: %v", err)
	}
}

func TestCopyEqualProperty(t *testing.T) {
	// Property: for arbitrary generated hit slices, the copy is
	// DeepEqual to the original and shares no backing arrays.
	f := func(urls []string, scores []float64) bool {
		n := len(urls)
		if len(scores) < n {
			n = len(scores)
		}
		hits := make([]hit, n)
		for i := 0; i < n; i++ {
			hits[i] = hit{URL: urls[i], Score: scores[i]}
		}
		orig := &result{Query: "q", Count: n, Hits: hits}
		cp, err := Value(orig)
		if err != nil {
			return false
		}
		copied := cp.(*result)
		if !reflect.DeepEqual(orig, copied) {
			return false
		}
		if n > 0 {
			copied.Hits[0].URL = copied.Hits[0].URL + "!"
			if orig.Hits[0].URL == copied.Hits[0].URL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLargeByteSliceFastPath(t *testing.T) {
	blob := make([]byte, 1<<16)
	for i := range blob {
		blob[i] = byte(i)
	}
	cp, err := Value(blob)
	if err != nil {
		t.Fatal(err)
	}
	copied := cp.([]byte)
	if &copied[0] == &blob[0] {
		t.Error("byte slice aliased")
	}
	copied[0] = 123
	if blob[0] == 123 {
		t.Error("mutation leaked")
	}
}
