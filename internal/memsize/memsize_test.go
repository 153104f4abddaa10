package memsize

import (
	"testing"
	"unsafe"
)

type small struct {
	A int
	B string
}

type linked struct {
	V    int
	Next *linked
}

// wordSize is the machine word size in bytes.
const wordSize = int(unsafe.Sizeof(uintptr(0)))

func TestScalars(t *testing.T) {
	if got := Of(int64(1)); got != 8 {
		t.Errorf("int64 = %d", got)
	}
	if got := Of(true); got != 1 {
		t.Errorf("bool = %d", got)
	}
	if got := Of(nil); got != 0 {
		t.Errorf("nil = %d", got)
	}
}

func TestString(t *testing.T) {
	// String header (2 words) + bytes.
	want := 2*wordSize + 5
	if got := Of("hello"); got != want {
		t.Errorf("string = %d, want %d", got, want)
	}
}

func TestByteSlice(t *testing.T) {
	// Slice header (3 words) + backing bytes.
	want := 3*wordSize + 100
	if got := Of(make([]byte, 100)); got != want {
		t.Errorf("[]byte = %d, want %d", got, want)
	}
}

func TestStructWithString(t *testing.T) {
	v := small{A: 1, B: "abcd"}
	// struct size already includes the string header; add the bytes.
	base := Of(small{A: 1})
	if got := Of(v); got != base+4 {
		t.Errorf("struct = %d, want %d", got, base+4)
	}
}

func TestPointerCountedOnce(t *testing.T) {
	shared := &small{B: "xxxx"}
	type two struct{ P, Q *small }
	v := two{P: shared, Q: shared}
	single := Of(two{P: shared})
	if got := Of(v); got != single {
		t.Errorf("shared pointer double counted: %d vs %d", got, single)
	}
}

func TestCycleTerminates(t *testing.T) {
	a := &linked{V: 1}
	b := &linked{V: 2, Next: a}
	a.Next = b
	if got := Of(a); got <= 0 {
		t.Errorf("cycle size = %d", got)
	}
}

func TestSliceOfStructs(t *testing.T) {
	v := []small{{B: "aa"}, {B: "bbb"}}
	got := Of(v)
	// Header + 2 elements + 5 string bytes.
	want := 3*wordSize + 2*int(sizeofSmall()) + 5
	if got != want {
		t.Errorf("slice = %d, want %d", got, want)
	}
}

func sizeofSmall() uintptr {
	var s small
	return sizeof(s)
}

func sizeof(v any) uintptr {
	switch v.(type) {
	case small:
		return uintptr(8 + 2*wordSize)
	default:
		return 0
	}
}

func TestMap(t *testing.T) {
	m := map[string]int{"a": 1, "bb": 2}
	got := Of(m)
	if got <= 0 {
		t.Errorf("map = %d", got)
	}
	// Larger map reports larger size.
	m2 := map[string]int{"a": 1, "bb": 2, "ccc": 3}
	if Of(m2) <= got {
		t.Error("bigger map not bigger")
	}
}

func TestNilSliceVsEmpty(t *testing.T) {
	var nilSlice []byte
	if Of(nilSlice) != 3*wordSize {
		t.Errorf("nil slice = %d", Of(nilSlice))
	}
}

func TestInterfaceField(t *testing.T) {
	type holder struct{ V any }
	h := holder{V: "abcdefgh"}
	if got, want := Of(h), Of(holder{})+2*wordSize+8; got < want {
		t.Errorf("interface holder = %d, want >= %d", got, want)
	}
}

func TestMonotonicInStructure(t *testing.T) {
	small1 := &small{B: "x"}
	big := &small{B: "xxxxxxxxxxxxxxxxxxxxxxxx"}
	if Of(big) <= Of(small1) {
		t.Error("bigger payload not bigger")
	}
}
