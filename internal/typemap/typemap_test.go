package typemap

import (
	"reflect"
	"testing"
)

type bean struct {
	Name  string
	Count int
	Tags  []string
	Child *bean
}

type notBean struct {
	Name   string
	hidden int //nolint:unused // presence is what the analysis detects
}

type cloneable struct{ V int }

func (c *cloneable) CloneDeep() any { out := *c; return &out }

type valueCloneable struct{ V int }

func (c valueCloneable) CloneDeep() any { return c }

type withFunc struct {
	F func()
}

type withChan struct {
	C chan int
}

type immutableStruct struct {
	A int
	B string
	C [4]float64
}

type taggedBean struct {
	SearchTime float64 `xml:"searchTime"`
	Skipped    string  `xml:"-"`
	URL        string
}

func TestQNameString(t *testing.T) {
	if got := (QName{Space: "urn:x", Local: "a"}).String(); got != "{urn:x}a" {
		t.Errorf("got %q", got)
	}
	if got := (QName{Local: "a"}).String(); got != "a" {
		t.Errorf("got %q", got)
	}
}

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	q := QName{Space: "urn:t", Local: "bean"}
	if err := r.Register(q, &bean{}); err != nil {
		t.Fatal(err)
	}
	typ, ok := r.TypeFor(q)
	if !ok || typ != reflect.TypeOf(bean{}) {
		t.Errorf("TypeFor = %v, %v", typ, ok)
	}
	// Lookup by value and by pointer should both resolve.
	if name, ok := r.NameForType(reflect.TypeOf(bean{})); !ok || name != q {
		t.Errorf("NameForType(value) = %v, %v", name, ok)
	}
	if name, ok := r.NameForType(reflect.TypeOf(&bean{})); !ok || name != q {
		t.Errorf("NameForType(ptr) = %v, %v", name, ok)
	}
}

func TestRegisterConflict(t *testing.T) {
	r := NewRegistry()
	q := QName{Local: "x"}
	if err := r.Register(q, bean{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(q, notBean{}); err == nil {
		t.Error("expected conflict error")
	}
	// Re-registering the same type is idempotent.
	if err := r.Register(q, bean{}); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
}

func TestRegisterNil(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(QName{Local: "x"}, nil); err == nil {
		t.Error("expected error for nil prototype")
	}
}

func TestClassify(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		v    any
		want class
	}{
		{"s", classPrimitive},
		{42, classPrimitive},
		{3.14, classPrimitive},
		{true, classPrimitive},
		{[]byte("x"), classBytes},
		{[]string{"a"}, classSlice},
		{[3]int{}, classSlice},
		{bean{}, classStruct},
		{&bean{}, classStruct},
		{map[string]int{}, classMap},
		{make(chan int), classOpaque},
	}
	for _, c := range cases {
		if got := r.InfoFor(c.v).Class; got != c.want {
			t.Errorf("InfoFor(%T).Class = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestImmutabilityAnalysis(t *testing.T) {
	r := NewRegistry()
	immutable := []any{"s", 42, int64(1), 3.14, true, uint8(1), immutableStruct{}}
	for _, v := range immutable {
		if !r.InfoFor(v).IsImmutable {
			t.Errorf("%T should be immutable", v)
		}
	}
	mutable := []any{&bean{}, []string{}, []byte{}, map[string]int{}, &immutableStruct{}, bean{}}
	for _, v := range mutable {
		if r.InfoFor(v).IsImmutable {
			t.Errorf("%T should be mutable", v)
		}
	}
}

func TestBeanAnalysis(t *testing.T) {
	r := NewRegistry()
	if !r.InfoFor(&bean{}).IsBean {
		t.Error("bean should be a bean (recursive self-reference allowed)")
	}
	if !r.InfoFor([]*bean{}).IsBean {
		t.Error("slice of beans should be bean-compatible")
	}
	if r.InfoFor(&notBean{}).IsBean {
		t.Error("struct with unexported field is not a bean")
	}
	if r.InfoFor(withFunc{}).IsBean {
		t.Error("struct with func field is not a bean")
	}
	if r.InfoFor(withChan{}).IsBean {
		t.Error("struct with chan field is not a bean")
	}
	if !r.InfoFor(map[string][]*bean{}).IsBean {
		t.Error("map of bean slices should be bean-compatible")
	}
	if !r.InfoFor("hello").IsBean {
		t.Error("a string is bean-compatible")
	}
}

func TestCloneableAnalysis(t *testing.T) {
	r := NewRegistry()
	if !r.InfoFor(&cloneable{}).IsCloneable {
		t.Error("*cloneable implements Cloner")
	}
	// Value whose pointer type implements Cloner also counts: the cache
	// can take an address.
	if !r.InfoForType(reflect.TypeOf(cloneable{})).IsCloneable {
		t.Error("cloneable (value) should be detected via pointer method set")
	}
	if !r.InfoFor(valueCloneable{}).IsCloneable {
		t.Error("valueCloneable implements Cloner directly")
	}
	if r.InfoFor(&bean{}).IsCloneable {
		t.Error("bean does not implement Cloner")
	}
}

func TestStructFields(t *testing.T) {
	r := NewRegistry()
	ti := r.InfoFor(&taggedBean{})
	if len(ti.Fields) != 2 {
		t.Fatalf("fields = %+v", ti.Fields)
	}
	if ti.Fields[0].XMLName != "searchTime" {
		t.Errorf("tagged field name = %q", ti.Fields[0].XMLName)
	}
	if ti.Fields[1].XMLName != "uRL" {
		// lowerFirst of "URL" is "uRL" — matches Axis bean introspection
		// of a getURL() property only loosely, but it is deterministic.
		t.Errorf("URL field name = %q", ti.Fields[1].XMLName)
	}
}

func TestInfoForNil(t *testing.T) {
	r := NewRegistry()
	ti := r.InfoFor(nil)
	if !ti.IsImmutable {
		t.Error("nil is trivially immutable")
	}
}

func TestInfoCached(t *testing.T) {
	r := NewRegistry()
	a := r.InfoFor(&bean{})
	b := r.InfoFor(&bean{})
	if a != b {
		t.Error("expected cached TypeInfo pointer")
	}
}

func TestLowerFirst(t *testing.T) {
	cases := map[string]string{"Name": "name", "URL": "uRL", "x": "x", "": "", "already": "already"}
	for in, want := range cases {
		if got := lowerFirst(in); got != want {
			t.Errorf("lowerFirst(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.InfoFor(&bean{})
			_, _ = r.NameForType(reflect.TypeOf(&bean{}))
		}
	}()
	for i := 0; i < 500; i++ {
		_ = r.Register(QName{Local: "bean"}, &bean{})
		r.InfoFor(&taggedBean{})
	}
	<-done
}
