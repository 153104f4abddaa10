// Package aliascopy is the golden fixture for the aliascopy analyzer:
// a self-contained ValueStore interface with implementations that
// violate and respect the call-by-copy invariant.
package aliascopy

// Context stands in for the invocation context a store receives.
type Context struct {
	Result any
	buf    []byte
}

// ValueStore mirrors the core interface the analyzer keys on.
type ValueStore interface {
	Name() string
	Store(ictx *Context) (any, int, error)
	Load(payload any) (any, error)
}

// Obj is a cacheable object with a generated deep-clone method.
type Obj struct {
	Items []string
}

// CloneDeep returns a deep copy of o.
func (o *Obj) CloneDeep() *Obj {
	cp := &Obj{Items: make([]string, len(o.Items))}
	copy(cp.Items, o.Items)
	return cp
}

// BadStore hands the cache the caller's live object.
type BadStore struct {
	last any
}

func (s *BadStore) Name() string { return "bad" }

func (s *BadStore) Store(ictx *Context) (any, int, error) {
	s.last = ictx.Result       // want "stores a reference reachable from its argument"
	return ictx.Result, 0, nil // want "returns a value aliasing its argument"
}

func (s *BadStore) Load(payload any) (any, error) {
	return payload, nil // want "returns a value aliasing its argument"
}

// GoodStore launders through the deep-clone boundary.
type GoodStore struct{}

func (s *GoodStore) Name() string { return "good" }

func (s *GoodStore) Store(ictx *Context) (any, int, error) {
	o, ok := ictx.Result.(*Obj)
	if !ok {
		return nil, 0, nil
	}
	return o.CloneDeep(), len(o.Items), nil
}

func (s *GoodStore) Load(payload any) (any, error) {
	o, ok := payload.(*Obj)
	if !ok {
		return nil, nil
	}
	return o.CloneDeep(), nil
}

// refStore is the documented pass-by-reference exception.
type refStore struct{}

func (s *refStore) Name() string { return "ref" }

func (s *refStore) Store(ictx *Context) (any, int, error) {
	return ictx.Result, 0, nil // exempt by name
}

func (s *refStore) Load(payload any) (any, error) {
	return payload, nil // exempt by name
}

// SizeStore returns only reference-free data derived from the argument.
type SizeStore struct{}

func (s *SizeStore) Name() string { return "size" }

func (s *SizeStore) Store(ictx *Context) (any, int, error) {
	n := len(ictx.buf)
	return n, n, nil // an int cannot alias the argument
}

func (s *SizeStore) Load(payload any) (any, error) {
	return payload, nil // want "returns a value aliasing its argument"
}

// sharedLoad is the Load two stores share by embedding it: promoted,
// it is each store's own Load and answers to the same rule.
type sharedLoad struct{}

func (l sharedLoad) Load(payload any) (any, error) {
	return payload, nil // want "returns a value aliasing its argument"
}

// EmbeddingStore takes its Load from sharedLoad.
type EmbeddingStore struct{ sharedLoad }

func (s *EmbeddingStore) Name() string { return "embedding" }

func (s *EmbeddingStore) Store(ictx *Context) (any, int, error) {
	n := len(ictx.buf)
	return n, n, nil
}
